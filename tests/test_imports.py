"""Every top-level import of the library and the tests is used, every
defaulted parameter of a library function is passed, every library
function, method and class is named somewhere, and every field of a
library class is read somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "strataglue").glob("*.py"))
MODULES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py")])
# everything that calls the library: read, never run or written
CALLERS = sorted(
    [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
)


def _unused_imports(source: str, package: bool = False) -> list[str]:
    """Names bound by the module body's import statements that the module
    never reads, as a ``Name`` or in ``__all__``.  A package's
    ``__init__`` (``package``) re-exports what it imports from its own
    modules, so its relative imports count as used."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__" and not (
            package and node.level
        ):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text(), path.name == "__init__.py") == []


def test_unused_import_is_reported():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\n__all__ = ['d']\nnp.x\n"
    assert _unused_imports(source) == ["os (line 1)", "c (line 3)"]
    # relative imports are re-exports only in a package's __init__
    assert _unused_imports("from .x import y\n") == ["y (line 1)"]
    assert _unused_imports("from .x import y\nimport os\n", package=True) == ["os (line 2)"]


def _unpassed_settings(library: list[str], callers: list[str]) -> list[str]:
    """``name(param)`` for each defaulted parameter of a function or
    method (dunders aside) in the ``library`` sources that no call of
    that name in the ``callers`` sources passes, by
    keyword or by position.  A method's positions start after ``self``;
    a call with ``*args`` or ``**kwargs`` passes everything it could."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    out = []
    for source in library:
        tree = ast.parse(source)
        methods = {
            id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
        }
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef) or f.name.startswith("__"):
                continue
            params = [a.arg for a in f.args.posonlyargs + f.args.args]
            if id(f) in methods and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list
            ):
                params = params[1:]
            first = len(params) - len(f.args.defaults)
            defaulted = [(name, i) for i, name in enumerate(params) if i >= first] + [
                (a.arg, None)
                for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None
            ]
            named = calls.get(f.name, [])
            for name, pos in defaulted:
                if not any(
                    any(k.arg in (name, None) for k in c.keywords)
                    or any(isinstance(a, ast.Starred) for a in c.args)
                    or (pos is not None and len(c.args) > pos)
                    for c in named
                ):
                    out.append(f"{f.name}({name})")
    return out


def test_every_private_setting_is_passed():
    sources = [path.read_text() for path in CALLERS]
    assert _unpassed_settings([path.read_text() for path in LIBRARY], sources) == []


def test_unpassed_setting_is_reported():
    library = (
        "def _f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def _m(self, x=0, y=0):\n        pass\n"
        "    def __init__(self, z=0):\n        pass\n"
        "def g(e=1):\n    pass\n"
    )
    callers = "_f(0, 5)\n_f(0, d=4)\nk._m(1)\n"
    assert _unpassed_settings([library], [library, callers]) == ["_f(c)", "g(e)", "_m(y)"]
    # a starred call could pass any of them
    assert _unpassed_settings([library], ["_f(*a)\nk._m(**kw)\n"]) == ["g(e)"]


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(node) -> set[int]:
    """The ids of the docstring nodes in a syntax tree: each string that
    is the first statement of a module, class or function body."""
    return {
        id(n.body[0].value) for n in ast.walk(node)
        if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and n.body and isinstance(n.body[0], ast.Expr)
        and isinstance(n.body[0].value, ast.Constant) and isinstance(n.body[0].value.value, str)
    }


def _names_in(node) -> Counter:
    """How often each name is read in a syntax tree: as a ``Name``, an
    attribute, an imported name or a word inside a string other than a
    docstring (perfbench names its probes in strings)."""
    names = Counter()
    docstrings = _docstrings(node)
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            names.update(_WORD.findall(n.value))
    return names


def _unnamed_definitions(library: list[str], sources: list[str]) -> list[str]:
    """Each function, method and class (dunders aside) defined in the
    ``library`` sources whose name the ``sources``, which hold the
    library too, read nowhere outside its own definition."""
    named = Counter()
    for source in sources:
        named.update(_names_in(ast.parse(source)))
    out = []
    for source in library:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not re.fullmatch("__.*__", name) and named[name] == _names_in(node)[name]:
                out.append(name)
    return sorted(out)


def test_every_definition_is_named():
    sources = [path.read_text() for path in CALLERS]
    assert _unnamed_definitions([path.read_text() for path in LIBRARY], sources) == []


def test_unnamed_definition_is_reported():
    library = (
        "def used():\n    pass\n"
        "def _dead():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class K:\n"
        "    def method(self):\n        pass\n"
        "    def probed(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "    def _unread(self):\n        pass\n"
        "def outer():\n"
        "    def helper():\n        pass\n"
        "    return helper()\n"
    )
    callers = "from lib import outer\nused()\nk = K()\nk.method()\nprobes = ['K.probed']\n"
    assert _unnamed_definitions([library], [library, callers]) == [
        "_dead", "_recursive", "_unread",
    ]
    # every reading counts: a name, an attribute, an import or a string
    assert _unnamed_definitions([library], [library, "_dead\nx._recursive\n'_unread'\n"]) == [
        "K", "method", "outer", "probed", "used",
    ]
    # but a docstring, of a module, a class or a function, is not a reading
    documented = (
        '"""_dead"""\n'
        'class C:\n    """_recursive"""\n'
        'def f():\n    """_unread"""\n'
    )
    assert _unnamed_definitions([library], [library, callers, documented]) == [
        "_dead", "_recursive", "_unread",
    ]


def _unread_fields(library: list[str], sources: list[str]) -> list[str]:
    """``Class.field`` for each annotated field of a class in the
    ``library`` sources that no attribute read in the ``sources`` names."""
    read = set()
    for source in sources:
        read |= {
            n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    out = []
    for source in library:
        for c in ast.walk(ast.parse(source)):
            if isinstance(c, ast.ClassDef):
                out += [
                    f"{c.name}.{f.target.id}" for f in c.body
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                    and f.target.id not in read
                ]
    return out


def test_every_field_is_read():
    sources = [path.read_text() for path in CALLERS]
    assert _unread_fields([path.read_text() for path in LIBRARY], sources) == []


def test_unread_field_is_reported():
    library = (
        "class Point:\n"
        "    x: float\n    y: float\n    label: str = ''\n    unit = 'm'\n"
        "    def shift(self):\n        self.label = 'moved'\n        return self.x\n"
    )
    # a field that is only written, or only named in a string, is unread
    callers = "p = Point(1.0, 2.0, label='a')\np.y += 1\nq = getattr(p, 'label')\n"
    assert _unread_fields([library], [library, callers]) == ["Point.y", "Point.label"]
    assert _unread_fields([library], [library, "print(p.y, p.label)\n"]) == []
