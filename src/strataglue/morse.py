"""Numerical negative-gradient flow on low-dimensional model systems.

Finds critical points, integrates flow lines, isolates connecting
trajectories by shooting from the unstable sphere of a source point,
assembles the 0/1-dimensional moduli data of each comparable pair
(isolated trajectories, arcs ending in broken trajectories, or closed
circles), measures numerical gluing convergence along arcs, and exports
the result as a stratified family.

Conventions:

* Systems live on a coordinate chart (optionally periodic, optionally a
  bounding box) or on the unit sphere in ambient coordinates.  The flow
  is ``du/dt = -metric_inv(u) grad f(u)`` (projected for the sphere).
* Moduli points are normalized against the time-shift action by their
  anchor: the unique point where f equals the mid-level of the pair.
* One-dimensional moduli are parametrized by shooting angle; their
  gluing parameter is arc length measured in the Hausdorff metric on
  trajectory images, accumulated from the broken boundary point.
"""

from __future__ import annotations

import ast
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, RangeError, UnsupportedDimensionError
from .family import ArcData, ArcEnd, PairModuli, StratifiedFamily, from_morse
from .dop853 import dop853_rows
from .numerics import brentq_rows, fd_jacobian
from .poset import CriticalPoint

TWO_PI = 2.0 * math.pi
# bisection rounds whose midpoints the sweep shoots as one batch
_LOOKAHEAD = 3
# the longest step of a seed's Newton iteration in find_critical_points
_NEWTON_STEP = 0.5


def __getattr__(name):
    # The benchmark tracer (perfbench/spans.py, under --trace 1) still
    # probes ``strataglue.morse.solve_ivp`` for its ``ivp_calls``
    # counters, though nothing here calls it.  Only that lookup loads
    # scipy; ROADMAP item 2 deletes this hook with those probes.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------


class MorseSystem:
    """A gradient-flow system on a chart, box or the unit sphere."""

    def __init__(
        self,
        name: str,
        dim: int,
        f,
        grad=None,
        metric_inv=None,
        embed=None,
        period=None,
        box=None,
        on_sphere: bool = False,
    ):
        self.name = name
        self.dim = dim
        self._f = f
        self._grad = grad
        self._metric_inv = metric_inv
        self._embed = embed
        self.period = tuple(period) if period else None
        self.box = (
            (np.asarray(box[0], float), np.asarray(box[1], float))
            if box
            else None
        )
        self.on_sphere = on_sphere

    # f, grad, rhs and rhs_back take (..., dim) rows; row i of the result
    # equals, bit for bit, the one-point result for row i

    def f(self, u):
        """f at every row of u; a float at a single (dim,) point."""
        u = np.asarray(u, dtype=float)
        value = self._f(u)
        return float(value) if u.ndim == 1 else np.asarray(value, dtype=float)

    def grad(self, u) -> np.ndarray:
        """Euclidean chart gradient of f (by default, central
        differences on the block)."""
        u = np.asarray(u, dtype=float)
        if self._grad is not None:
            return np.asarray(self._grad(u), dtype=float)
        return fd_jacobian(self._f, u, 1e-6)

    def rhs(self, u) -> np.ndarray:
        """Negative-gradient velocity field in chart coordinates."""
        u = np.asarray(u, dtype=float)
        if self.on_sphere:
            return self._sphere_field(u, -1.0)
        g = self.grad(u)
        if self._metric_inv is not None:
            return -self._metric_inv(u) * g
        return -g

    def rhs_back(self, u) -> np.ndarray:
        """Time-reversed velocity field.

        Not simply -rhs: the sphere's radius-stabilization term must
        keep its sign or backward orbits leave the sphere exponentially.
        """
        u = np.asarray(u, dtype=float)
        if self.on_sphere:
            return self._sphere_field(u, 1.0)
        return -self.rhs(u)

    def _sphere_field(self, u, sign):
        """sign times the tangential gradient, plus the radius term."""
        g = self.grad(u)
        uu = np.sum(u * u, axis=-1, keepdims=True)
        v = g - np.sum(g * u, axis=-1, keepdims=True) * u / uu
        return sign * v + (1.0 - uu) * u

    # -- geometry ------------------------------------------------------

    def embed(self, U) -> np.ndarray:
        """Embedding into a fixed Euclidean space for all distances."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if self._embed is not None:
            return self._embed(U)
        return U

    def wrap(self, u) -> np.ndarray:
        """u with each periodic coordinate reduced into [0, period);
        takes (..., dim) rows."""
        u = np.array(u, dtype=float)
        if self.period:
            for a, per in enumerate(self.period):
                if per:
                    u[..., a] = u[..., a] % per
        return u

    def distance(self, a, b) -> float:
        return float(
            np.linalg.norm(self.embed([a])[0] - self.embed([b])[0])
        )

    def in_box(self, u, margin: float = 0.0):
        """Whether each row of u lies in the box shrunk by margin."""
        u = np.asarray(u, dtype=float)
        if self.box is None:
            return np.ones(u.shape[:-1], dtype=bool)
        lo, hi = self.box
        return np.all((u >= lo + margin) & (u <= hi - margin), axis=-1)

    def default_seeds(self, per_axis: int = 24) -> np.ndarray:
        if self.on_sphere:
            # Fibonacci points on the unit sphere
            k = np.arange(per_axis * per_axis)
            phi = math.pi * (3.0 - math.sqrt(5.0)) * k
            z = 1.0 - 2.0 * (k + 0.5) / len(k)
            rad = np.sqrt(1.0 - z * z)
            return np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)
        axes = []
        for a in range(self.dim):
            if self.period and self.period[a]:
                axes.append(np.linspace(0, self.period[a], per_axis, endpoint=False))
            elif self.box is not None:
                lo, hi = self.box
                axes.append(np.linspace(lo[a], hi[a], per_axis))
            else:
                axes.append(np.linspace(-2, 2, per_axis))
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def tilted_torus(
    tilt: float = 0.1, swirl: float = 0.7, big_radius: float = 2.0,
    small_radius: float = 1.0,
) -> MorseSystem:
    """Height-like function on an embedded torus, tilted generically.

    Chart (theta, phi), both 2*pi-periodic; theta runs around the tube.
    The linear function is along a direction tilted off the symmetry
    axis so that no saddle-to-saddle flow line survives.
    """
    R, r = big_radius, small_radius
    # Python floats: numpy scalars would cost more per operation
    e = (
        math.cos(tilt),
        math.sin(tilt) * math.cos(swirl),
        math.sin(tilt) * math.sin(swirl),
    )

    def embed(U):
        th, ph = U[:, 0], U[:, 1]
        w = R + r * np.cos(th)
        return np.stack([w * np.cos(ph), w * np.sin(ph), r * np.sin(th)], axis=1)

    def f(u):
        th, ph = u[..., 0], u[..., 1]
        w = R + r * np.cos(th)
        return e[0] * w * np.cos(ph) + e[1] * w * np.sin(ph) + e[2] * r * np.sin(th)

    # grad and metric_inv write into one np.empty: small lockstep
    # batches make numpy's per-call overhead, not the arithmetic, the cost
    def grad(u):
        c, s = np.cos(u), np.sin(u)
        ct, cp = c[..., 0], c[..., 1]
        st, sp = s[..., 0], s[..., 1]
        out = np.empty(u.shape)
        out[..., 0] = -r * st * (e[0] * cp + e[1] * sp) + e[2] * r * ct
        out[..., 1] = (R + r * ct) * (-e[0] * sp + e[1] * cp)
        return out

    def metric_inv(u):
        out = np.empty(u.shape)
        out[..., 0] = 1.0 / (r * r)
        w = R + r * np.cos(u[..., 0])
        out[..., 1] = 1.0 / (w * w)
        return out

    return MorseSystem(
        "torus", 2, f, grad=grad, metric_inv=metric_inv, embed=embed,
        period=(TWO_PI, TWO_PI),
    )


def round_sphere() -> MorseSystem:
    """Height function on the unit sphere in ambient coordinates."""

    def f(u):
        return u[..., 2]

    def grad(u):
        g = np.zeros_like(u)
        g[..., 2] = 1.0
        return g

    return MorseSystem("sphere", 3, f, grad=grad, on_sphere=True)


def interval_well() -> MorseSystem:
    """f(x) = x^2 on [-1, 1]: a single interior minimum."""
    return MorseSystem(
        "well", 1,
        lambda u: u[..., 0] ** 2,
        grad=lambda u: 2.0 * u[..., :1],
        box=([-1.0], [1.0]),
    )


def double_system(weight: float = 1.3) -> MorseSystem:
    """Two independent one-dimensional cubic factors on a box.

    f(x, y) = h(x) + weight * h(y) with h(t) = t^3/3 - t, so the flow
    is a product of the factor flows; used to check that gluing factors
    through a product system matches gluing the product directly.
    """

    def h(t):
        return t ** 3 / 3.0 - t

    def grad(u):
        g = u * u
        g -= 1.0
        g[..., 1] *= weight
        return g

    return MorseSystem(
        "double", 2,
        lambda u: h(u[..., 0]) + weight * h(u[..., 1]),
        grad=grad,
        box=([-2.5, -2.5], [2.5, 2.5]),
    )


BUILTIN_SYSTEMS = {
    "torus": tilted_torus,
    "sphere": round_sphere,
    "well": interval_well,
    "double": double_system,
}


# ---------------------------------------------------------------------
# symbolic expressions for custom systems
# ---------------------------------------------------------------------

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALLOWED_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}


def parse_expression(text: str, variables):
    """Compile an arithmetic expression into a numpy function of
    (..., k) rows, variable i in column i.  Supports +, -, *, /, **,
    sin, cos, exp and the given variable names; anything else is
    rejected."""
    variables = list(variables)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"bad expression {text!r}: {exc}") from exc

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            val = float(node.value)
            return lambda u: val
        if isinstance(node, ast.Name):
            if node.id not in variables:
                raise InputError(f"unknown variable {node.id!r}")
            idx = variables.index(node.id)
            return lambda u: u[..., idx]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = build(node.operand)
            return lambda u: -inner(u)
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            op = _ALLOWED_BINOPS[type(node.op)]
            left, right = build(node.left), build(node.right)
            return lambda u: op(left(u), right(u))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ALLOWED_CALLS
            and len(node.args) == 1
            and not node.keywords
        ):
            fn = _ALLOWED_CALLS[node.func.id]
            arg = build(node.args[0])
            return lambda u: fn(arg(u))
        raise InputError(f"unsupported expression element {ast.dump(node)}")

    body = build(tree)

    def compiled(u):
        u = np.asarray(u, dtype=float)
        value = body(u)
        # a constant gives one value per row
        return value if np.ndim(value) == u.ndim - 1 else np.full(u.shape[:-1], value)

    return compiled


def system_from_expression(
    expr: str, dim: int, box=None, period=None, name: str = "custom"
) -> MorseSystem:
    """A system whose f is a symbolic expression in x, y, z / x0..xn."""
    if not 1 <= dim <= 3:
        raise UnsupportedDimensionError(f"custom systems support dim 1..3, got {dim}")
    if box is not None:
        arr = np.asarray(box, dtype=float)
        # accept per-axis [lo, hi] rows as well as (lo_vec, hi_vec)
        if arr.shape == (dim, 2) and np.all(arr[:, 0] < arr[:, 1]):
            box = (arr[:, 0], arr[:, 1])
        elif arr.shape == (2, dim) and np.all(arr[0] < arr[1]):
            box = (arr[0], arr[1])
        else:
            raise InputError(f"bad box {box!r} for dimension {dim}")
    names = ["x", "y", "z"][:dim]
    fn = parse_expression(expr, names + [f"x{i}" for i in range(dim)])
    # one gather: both spellings of coordinate i read column i
    cols = list(range(dim)) * 2
    return MorseSystem(name, dim, lambda u: fn(u[..., cols]), box=box, period=period)


# ---------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------


@dataclass
class CriticalPointData:
    """``eigenvalues`` are minus those of the flow's linearization, in
    ascending order: the Hessian's on a Euclidean chart, with the same
    signs under a metric.  ``index`` and ``morse`` are read from them."""

    id: str
    location: np.ndarray
    value: float
    index: int
    gradient_norm: float
    eigenvalues: np.ndarray
    morse: bool


def find_critical_points(system: MorseSystem, seeds=None) -> list[CriticalPointData]:
    """Deduplicated critical points with Morse indices.

    All seeds take up to 60 Newton steps towards a zero of ``rhs`` at
    once, each at most ``_NEWTON_STEP`` long, with the block's
    central-difference Jacobian and a pseudo-inverse, so singular rows
    take finite steps; on the sphere the radius term of ``rhs`` pins
    |u| = 1.  Rows that go non-finite drop out.  Zeros outside the
    domain or with a gradient norm above 1e-8 are dropped, and a zero
    within 1e-6 of an earlier one (embedded) is merged into it.  Each
    point is indexed by the flow's linearization (``_linearization``);
    degenerate points are flagged non-Morse.
    """
    if seeds is None:
        seeds = system.default_seeds()
    U = np.array(seeds, dtype=float)
    live = np.arange(len(U))
    with np.errstate(all="ignore"):
        for _ in range(60):
            X = U[live]
            F = system.rhs(X)
            J = fd_jacobian(system.rhs, X, 1e-6)
            ok = np.isfinite(F).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
            U[live[~ok]] = np.nan
            live, X = live[ok], X[ok]
            step = (np.linalg.pinv(J[ok]) @ F[ok, :, None])[..., 0]
            norm = np.linalg.norm(step, axis=1)
            U[live] = X - step * (_NEWTON_STEP / np.maximum(norm, _NEWTON_STEP))[:, None]
            live = live[norm > 1e-12]
            if not len(live):
                break
        U = system.wrap(U)
        G = system.grad(U)
    if system.on_sphere:
        G -= np.sum(G * U, axis=1, keepdims=True) * U
    gnorm = np.linalg.norm(G, axis=1)
    good = np.flatnonzero(system.in_box(U, margin=1e-9) & (gnorm <= 1e-8))
    E = system.embed(U[good])
    first: list[int] = []
    for k in range(len(good)):
        if all(np.linalg.norm(E[k] - E[j]) >= 1e-6 for j in first):
            first.append(k)
    rows = good[first]
    if not len(rows):
        raise InputError("no critical points found; is f constant?")
    found = []
    for k, r in enumerate(rows[np.argsort(-system.f(U[rows]), kind="stable")]):
        eig = np.sort(-_linearization(system, U[r])[0])
        found.append(CriticalPointData(
            id=f"c{k}", location=U[r], value=system.f(U[r]), index=int(np.sum(eig < 0)),
            gradient_norm=float(gnorm[r]), eigenvalues=eig,
            morse=bool(np.min(np.abs(eig)) > 1e-6),
        ))
    return found


def _linearization(system: MorseSystem, u) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real parts) and eigenvectors of the flow's Jacobian
    at u, the one place it is formed.

    The Jacobian is the central difference of ``rhs`` (step 1e-6).  On
    the sphere it is restricted to the tangent plane, and the
    eigenvectors are returned in ambient coordinates.  At a critical
    point the eigenvalues are minus those of the Hessian on a Euclidean
    chart, with the same signs under a metric.
    """
    basis = _tangent_basis(u) if system.on_sphere else None
    A = fd_jacobian(system.rhs, u, 1e-6, directions=basis)
    if system.on_sphere:
        A = basis.T @ A
    w, v = np.linalg.eig(A)
    if system.on_sphere:
        v = basis @ v
    return np.real(w), np.real(v)


def _tangent_basis(u: np.ndarray) -> np.ndarray:
    """Two orthonormal vectors spanning the tangent plane at u on S^2."""
    u = u / np.linalg.norm(u)
    a = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(a, u)) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    v1 = a - np.dot(a, u) * u
    v1 /= np.linalg.norm(v1)
    v2 = np.cross(u, v1)
    return np.stack([v1, v2], axis=1)


# ---------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------


@dataclass
class FlowSegment:
    times: np.ndarray
    states: np.ndarray
    status: str  # converged | exited | time
    sol: object  # the dense output: sol(t) is the state at time t


def _speed(F) -> np.ndarray:
    return np.sqrt(np.sum(F * F, axis=-1))


def integrate_flow(
    system: MorseSystem,
    x,
    t_span=(0.0, 400.0),
    rtol: float = 1e-10,
    atol: float = 1e-12,
    stop_speed: float = 1e-7,
    samples: int = 400,
):
    """Integrate the negative-gradient flow from x: one ``FlowSegment``
    from a (dim,) start, or a list from the rows of an (n, dim) block,
    as one batch, each bit for bit its one-row run.

    Stops when the speed drops below ``stop_speed`` (converged to a
    critical point), when the path leaves the bounding box (exited),
    or at the end of the time span.
    """
    if t_span[1] <= t_span[0]:
        raise InputError(f"time span {t_span} does not run forward")
    X = np.asarray(x, dtype=float)
    events = [lambda Y, F: _speed(F) - stop_speed]
    if system.box is not None:
        lo, hi = system.box
        events.append(
            lambda Y, F: np.min(np.minimum(Y - lo, hi - Y), axis=-1) + 1e-9
        )
    paths = dop853_rows(system.rhs, np.atleast_2d(X), t_span, rtol, atol, events)
    out = []
    for path in paths:
        status = "time" if path.event is None else ("converged", "exited")[path.event]
        ts = np.linspace(path.t[0], path.t[-1], samples)
        out.append(FlowSegment(times=ts, states=path(ts), status=status, sol=path))
    return out[0] if X.ndim == 1 else out


def _level_crossings(system, paths, lo, hi, levels, fallback) -> np.ndarray:
    """Row i: where f crosses ``levels[i]`` along ``paths[i]`` on
    [lo[i], hi[i]]; one ``brentq_rows`` call (xtol 1e-12), bit for bit
    scipy's ``brentq``.  A row whose f - level has one nonzero sign,
    or a NaN, at both ends keeps ``fallback[i]`` (``brentq`` raised)."""
    out = np.array(fallback, dtype=float).reshape(-1, system.dim)
    lo, hi, levels = (np.asarray(v, dtype=float) for v in (lo, hi, levels))

    def at(t, rows):
        return np.reshape([paths[r](s) for r, s in zip(rows, t)], (-1, system.dim))

    def gap(t, rows):
        return system.f(at(t, rows)) - levels[rows]

    rows = np.arange(len(out))
    f_lo, f_hi = gap(lo, rows), gap(hi, rows)
    bracket = (f_lo == 0) | (f_hi == 0) | (np.signbit(f_lo) != np.signbit(f_hi))
    rows = rows[bracket & ~np.isnan(f_lo) & ~np.isnan(f_hi)]
    t = brentq_rows(lambda t, i: gap(t, rows[i]), lo[rows], hi[rows], xtol=1e-12)
    out[rows] = at(t, rows)
    return out


# ---------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------


@dataclass
class Trajectory:
    source: str
    target: str
    times: np.ndarray
    states: np.ndarray          # chart coordinates, includes both endpoints
    points: np.ndarray          # embedded coordinates
    anchor: np.ndarray          # chart point at the pair's mid level of f
    angle: float | None = None  # shooting parameter, when applicable


def _unstable_frame(system: MorseSystem, crit: CriticalPointData) -> np.ndarray:
    """Orthonormal basis of the unstable space of the flow at crit."""
    w, v = _linearization(system, crit.location)
    return np.linalg.qr(v[:, w > 0])[0]


def _frame_direction(frame, angle) -> np.ndarray:
    """The direction of a shooting angle in an unstable frame of one or
    two columns."""
    if frame.shape[1] == 1:
        return frame[:, 0] * (1.0 if angle < math.pi else -1.0)
    return frame[:, 0] * math.cos(angle) + frame[:, 1] * math.sin(angle)


def _shoot_start(system, crit, frame, angle, delta=1e-4):
    x = crit.location + delta * _frame_direction(frame, angle)
    if system.on_sphere:
        x = x / np.linalg.norm(x)
    return x


def _nearest_crits(system, crits, U):
    """Index into ``crits`` of the critical point nearest to each row of
    U, and its distance, from one (rows, points, shifts) array.

    A row's distance to a point is its embedded distance or, on a
    periodic chart, the smaller of that and its chart distances to the
    point's period shifts.  Ties go to the first point in ``crits``.
    """
    W = system.wrap(np.reshape(U, (-1, system.dim)))
    C = np.array([c.location for c in crits])
    d = np.linalg.norm(system.embed(W)[:, None] - system.embed(C), axis=-1)
    if system.period:
        shifted = C[:, None] + _period_shifts(system)
        chart = np.linalg.norm(W[:, None, None] - shifted, axis=-1)
        d = np.minimum(d, chart.min(axis=-1))
    best = np.argmin(d, axis=1)
    return best, d[np.arange(len(d)), best]


def _period_shifts(system) -> np.ndarray:
    """Every shift by -1, 0 or 1 period along each periodic axis."""
    return np.array(list(itertools.product(
        *[(-per, 0.0, per) if per else (0.0,) for per in system.period]
    )))


def _make_trajectories(
    system, source: CriticalPointData, targets, segs, angles, prefixes=None,
    truncate=False,
) -> list[Trajectory]:
    """Trajectory i from ``segs[i]``, shot at ``angles[i]`` from
    ``source`` to ``targets[i]``.

    ``truncate`` cuts each segment at its closest approach to its
    target (used for limits into a saddle); ``prefixes[i]`` (states,
    times) goes before segment i.  Each path is prepended/appended with
    the exact endpoint locations, and anchored where f crosses the
    pair's mid level, by one ``_level_crossings`` call.
    """
    mids = [0.5 * (source.value + target.value) for target in targets]
    cut, lo, hi, fallback = [], [], [], []
    for seg, target, mid in zip(segs, targets, mids):
        states, times = seg.states, seg.times
        if truncate:
            tloc = system.embed([target.location])[0]
            stop = int(np.argmin(np.linalg.norm(system.embed(states) - tloc, axis=1)))
            states, times = states[: stop + 1], times[: stop + 1]
        k = int(np.searchsorted(-system.f(states), -mid))
        k = min(max(k, 1), len(states) - 1)
        cut.append((states, times))
        lo.append(times[k - 1])
        hi.append(times[k])
        fallback.append(states[k])
    anchors = _level_crossings(system, [seg.sol for seg in segs], lo, hi, mids, fallback)
    out = []
    for i, (states, times) in enumerate(cut):
        if prefixes is not None:
            pre_states, pre_times = prefixes[i]
            head = np.vstack([source.location, pre_states])
            head_times = np.concatenate(
                [[times[0] + pre_times[0] - 1.0], times[0] + pre_times]
            )
        else:
            head = np.atleast_2d(source.location)
            head_times = np.array([times[0] - 1.0])
        full = np.vstack([head, states, targets[i].location])
        full_times = np.concatenate([head_times, times, [times[-1] + 1.0]])
        out.append(Trajectory(
            source.id, targets[i].id, full_times, full, system.embed(full),
            anchors[i], angles[i],
        ))
    return out


# ---------------------------------------------------------------------
# polyline geometry
# ---------------------------------------------------------------------


_CHUNK = 16  # points per exact kernel call in _farthest
# entries of one Gram block in _nearest_vertex: bounds its memory
_GRAM = 1 << 16


def _points_to_polyline(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Distance from each point of P to the polyline with vertices Q.

    The dense reference: every point against every segment, P×S×dim
    temporaries.  Each row depends only on its own point, so calling it
    on a subset of P gives the same values, bit for bit, as the
    matching rows of a call on all of P.  ``_farthest`` relies on that
    (it is the per-chunk kernel there), and the tests use this function
    as the oracle for ``hausdorff`` and ``hausdorff_to_union``.
    """
    A = Q[:-1]
    B = Q[1:]
    AB = B - A
    denom = np.maximum(np.einsum("ij,ij->i", AB, AB), 1e-30)
    diff = P[:, None, :] - A[None, :, :]
    t = np.clip(np.einsum("pse,se->ps", diff, AB) / denom, 0.0, 1.0)
    proj = A[None, :, :] + t[:, :, None] * AB[None, :, :]
    d = np.linalg.norm(P[:, None, :] - proj, axis=2)
    return d.min(axis=1)


def _segment_distances(P, A, B) -> np.ndarray:
    """Distance from each row of P to the segment from the same row of
    A to that of B, by the arithmetic of ``_points_to_polyline``."""
    AB = B - A
    denom = np.maximum(np.einsum("ij,ij->i", AB, AB), 1e-30)
    t = np.clip(np.einsum("ij,ij->i", P - A, AB) / denom, 0.0, 1.0)
    return np.linalg.norm(P - (A + t[:, None] * AB), axis=1)


def _nearest_vertex(P: np.ndarray, V: np.ndarray):
    """A nearest row of V to each row of P, and the distance to it.

    Each row takes the argmin of |v|² − 2 p·v over V: one BLAS product
    of the rows [p, 1] with the columns [−2v, |v|²], a block of at most
    ``_GRAM`` entries at a time.  Rounding may pick a vertex a hair
    farther than the nearest; the distance returned is the exact one to
    the vertex picked, so it is always an upper bound.
    """
    W = np.empty((V.shape[1] + 1, len(V)))
    np.multiply(V.T, -2.0, out=W[:-1])
    W[-1] = np.einsum("ij,ij->i", V, V)
    Pa = np.empty((len(P), P.shape[1] + 1))
    Pa[:, :-1] = P
    Pa[:, -1] = 1.0
    k = np.empty(len(P), dtype=np.intp)
    rows = max(1, _GRAM // len(V))
    for start in range(0, len(P), rows):
        (Pa[start:start + rows] @ W).argmin(axis=1, out=k[start:start + rows])
    return np.linalg.norm(P - V[k], axis=1), k


def _farthest(P: np.ndarray, parts, cmax: float) -> float:
    """max(cmax, max over p in P of min over parts of the polyline distance).

    Exact early break (Taha & Hanbury, IEEE TPAMI 37, 2015).  Each
    point's distance to the polylines is bounded from above by its
    distance to a near vertex of the parts (``_nearest_vertex`` over all
    of them, stacked in order) and to the at most two segments of that
    vertex's part that meet there; on finely sampled curves a segment
    is far closer than its ends.  Points are visited in descending
    bound, ``_CHUNK`` at a time, each chunk through
    ``_points_to_polyline``; the search stops once the largest bound
    left cannot beat the running maximum.  The bound is inflated by a
    relative 1e-12 and an absolute 1e-12 * (scale + 1), scale the
    largest coordinate: far above the rounding of the vertex, segment
    and kernel distances (the kernel can put a vertex an ulp off its
    own segment), so no skipped point could have raised
    the maximum and the result equals the dense pass exactly.  Only a
    point that equals the start of the segment after its chosen vertex,
    as every point of two identical curves does, gets the bound 0,
    which is then exact.
    """
    V = parts[0] if len(parts) == 1 else np.vstack(parts)
    scale = max(float(np.abs(X).max()) for X in (P, *parts))
    near, k = _nearest_vertex(P, V)
    first = np.zeros(len(V), dtype=bool)
    first[np.cumsum([0] + [len(Q) for Q in parts[:-1]])] = True
    # a vertex that starts (ends) its part has no segment before (after)
    # it there; the degenerate segment (k, k) stands in for it
    prev = k - ~first[k]
    nxt = k + ~np.roll(first, -1)[k]
    near = np.minimum(near, _segment_distances(P, V[prev], V[k]))
    near = np.minimum(near, _segment_distances(P, V[k], V[nxt]))
    ub = near * (1.0 + 1e-12) + 1e-12 * (scale + 1.0)
    # a point equal to a vertex that starts a segment is at distance
    # exactly 0 in the kernel too: its difference to the segment's start
    # is zero, so is its parameter, and its projection is that start
    ub[(nxt != k) & np.all(P == V[k], axis=1)] = 0.0
    order = np.argsort(-ub, kind="stable")
    for start in range(0, len(order), _CHUNK):
        idx = order[start:start + _CHUNK]
        if ub[idx[0]] <= cmax:
            break
        d = _points_to_polyline(P[idx], parts[0])
        for Q in parts[1:]:
            d = np.minimum(d, _points_to_polyline(P[idx], Q))
        cmax = max(cmax, float(d.max()))
    return cmax


def hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two sampled curves.

    Each side measures point-to-polyline (segment) distances, so the
    result is insensitive to the sampling density to second order.
    Both directed maxima run through ``_farthest``, the second starting
    from the first: the value is that of the dense pass over
    ``_points_to_polyline``, but points whose vertex bound cannot raise
    the maximum are never measured.
    """
    P = np.atleast_2d(P)
    Q = np.atleast_2d(Q)
    if len(Q) < 2:
        d1 = np.linalg.norm(P - Q[0], axis=1)
        return float(d1.max())
    if len(P) < 2:
        return float(_points_to_polyline(Q, P.repeat(2, axis=0)).max())
    h = _farthest(P, [Q], 0.0)
    return _farthest(Q, [P], h)


def hausdorff_to_union(P: np.ndarray, parts) -> float:
    """Hausdorff distance from curve P to a union of sampled curves.

    Computed like ``hausdorff``: P against the union, bounded by the
    nearest vertex of any part, then each part back against P.
    """
    P = np.atleast_2d(P)
    parts = [np.atleast_2d(Q) for Q in parts]
    h = _farthest(P, parts, 0.0)
    for Q in parts:
        h = _farthest(Q, [P], h)
    return h


# ---------------------------------------------------------------------
# moduli analysis
# ---------------------------------------------------------------------


@dataclass
class ArcEndData:
    junction: str
    left_index: int
    right_index: int
    angle: float
    hausdorff: float


@dataclass
class ModuliArc:
    angle_lo: float
    angle_hi: float
    ends: tuple  # (ArcEndData at angle_lo, ArcEndData at angle_hi)
    length: float = 0.0
    _tables: dict = field(default_factory=dict)


@dataclass
class PairData:
    pair: tuple[str, str]
    dim: int
    trajectories: list = field(default_factory=list)
    arcs: list = field(default_factory=list)
    circle: float | None = None


class ModuliAnalysis:
    """All computed flow data of one system: critical points, the
    connection poset, and per-pair moduli structure."""

    def __init__(self, system: MorseSystem, resolution: int = 64, rng=None):
        self.system = system
        self.resolution = resolution
        self.critical_points = find_critical_points(system)
        self.by_id = {c.id: c for c in self.critical_points}
        if not all(c.morse for c in self.critical_points):
            bad = [c.id for c in self.critical_points if not c.morse]
            raise InputError(f"degenerate (non-Morse) critical points: {bad}")
        self.pairs: dict[tuple[str, str], PairData] = {}
        self._sweeps: dict[str, dict] = {}
        self._angles: dict | None = None  # filled by check_transversality
        self._compute()

    # -- structure -----------------------------------------------------

    def _compute(self):
        crits = self.critical_points
        dim = 2 if self.system.on_sphere else self.system.dim
        todo = [
            (p, q)
            for p in crits
            for q in crits
            if p.value > q.value and p.index > q.index
        ]
        # isolated pairs first: arcs match their ends against them
        todo.sort(key=lambda pq: pq[0].index - pq[1].index)
        for p, q in todo:
            gap = p.index - q.index
            if gap == 1:
                trajs = self._isolated_trajectories(p, q)
                if trajs:
                    self.pairs[(p.id, q.id)] = PairData(
                        (p.id, q.id), 0, trajectories=trajs
                    )
            elif gap == 2:
                data = self._one_dim_moduli(p, q)
                if data is not None:
                    self.pairs[(p.id, q.id)] = data
            else:
                raise UnsupportedDimensionError(
                    f"moduli of ({p.id},{q.id}) would have dimension {gap - 1}"
                )

    def relations(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)

    # -- isolated (0-dimensional) moduli -------------------------------

    def _isolated_trajectories(self, p, q) -> list[Trajectory]:
        if p.index == 1:
            return self._saddle_descents(p, q)
        return sorted(
            (s["trajectory"] for s in self._sweep(p)["special"] if s["target"] == q.id),
            key=lambda t: t.angle,
        )

    def _saddle_descents(self, p, q) -> list[Trajectory]:
        frame = _unstable_frame(self.system, p)
        angles = (0.0, math.pi)
        X = [_shoot_start(self.system, p, frame, angle) for angle in angles]
        segs = integrate_flow(self.system, X)
        near, dist = _nearest_crits(
            self.system, self.critical_points, [seg.states[-1] for seg in segs]
        )
        hits = [
            i for i, (seg, c, d) in enumerate(zip(segs, near, dist))
            if seg.status == "converged" and self.critical_points[c].id == q.id and d <= 1e-4
        ]
        return _make_trajectories(
            self.system, p, [q] * len(hits), [segs[i] for i in hits], [angles[i] for i in hits]
        )

    # -- shooting sweep from an index-2 point ---------------------------

    def _launch_level(self, p) -> float:
        below = [c.value for c in self.critical_points if c.value < p.value]
        top = max(below)
        return p.value - 0.25 * (p.value - top)

    def _launch(self, p, frame, angles) -> np.ndarray:
        """Starting points, one row per angle, on the level circle
        around p.

        Shooting directly off the unstable eigenframe is useless here:
        separatrix angles collapse exponentially onto the weak
        eigendirection.  Position along the nearby level curve of f is
        an honest coordinate on the local family of descending
        trajectories, so shots are launched from there.  Every angle
        expands its bracket along its ray at once, and one
        ``brentq_rows`` finds the level on all the rays; row i equals
        the launch of angle i alone, bit for bit.
        """
        system = self.system
        level = self._launch_level(p)
        D = np.reshape(
            [self._launch_direction(p, frame, angle) for angle in angles],
            (-1, p.location.size),
        )
        if system.on_sphere:
            base = p.location / np.linalg.norm(p.location)
            curve = lambda s, i: (
                np.cos(s)[:, None] * base + np.sin(s)[:, None] * D[i]
            )
            s_max = 0.9 * math.pi
        else:
            curve = lambda s, i: p.location + s[:, None] * D[i]
            s_max = 20.0
        gap = lambda s, i: system.f(curve(s, i)) - level
        rows = np.arange(len(D))
        s_lo, s_hi = np.full(len(D), 1e-9), np.full(len(D), 1e-3)
        inside = rows[gap(s_hi, rows) > 0]  # rows still above the level
        lost = []
        while len(inside):
            s_lo[inside] = s_hi[inside]
            s_hi[inside] *= 1.5
            far = s_hi[inside] > s_max
            lost += list(inside[far])
            inside = inside[~far]
            inside = inside[gap(s_hi[inside], inside) > 0]
        if lost:
            raise InputError(
                f"level curve around {p.id} not reached along angle "
                f"{angles[min(lost)]}"
            )
        return curve(brentq_rows(gap, s_lo, s_hi, xtol=1e-14), rows)

    def _launch_direction(self, p, frame, angle) -> np.ndarray:
        """The unit direction of one shooting angle (tangent to the
        sphere at p on the sphere)."""
        direction = _frame_direction(frame, angle)
        if self.system.on_sphere:
            base = p.location / np.linalg.norm(p.location)
            direction = direction - np.dot(direction, base) * base
            direction /= np.linalg.norm(direction)
        return direction

    def _back_prefix(self, p, X0, samples: int = 60):
        """Backward paths from the rows of X0 up to (near) p, as one
        batch; each is (states, times), ordered p -> x0."""
        system = self.system
        if system.on_sphere:
            # rhs_back is not -rhs there, so the stop test needs rhs
            speed = lambda Y, F: _speed(system.rhs(Y)) - 1e-9
        else:
            speed = lambda Y, F: _speed(F) - 1e-9
        paths = dop853_rows(
            system.rhs_back, X0, (0.0, 200.0), 1e-10, 1e-12, [speed]
        )
        out = []
        for path in paths:
            ts = np.linspace(path.t[0], path.t[-1], samples)
            # backward time s corresponds to flow time -s before the launch
            out.append((path(ts)[::-1][:-1], -ts[::-1][:-1]))
        return out

    def _classify(self, p, frame, angles, level, rtol=1e-8):
        """Integrate one shot per angle, as one batch, and summarize
        where each went.

        Returns one (tag, descriptor) per angle: tag is 'crit:<id>',
        'exit' or 'lost', and the descriptor is the embedded crossing
        point at the reference level (continuous within one trajectory
        family, jumping across the stable set of a saddle), else the
        embedded end of the shot.
        """
        system = self.system
        X = self._launch(p, frame, angles)
        segs = integrate_flow(system, X, rtol=rtol, atol=1e-10, samples=200)
        S = np.array([seg.states for seg in segs])
        T = np.array([seg.times for seg in segs])
        near, dist = _nearest_crits(system, self.critical_points, S[:, -1])
        # the level crossing sits between samples k - 1 and k
        ks = np.array([np.searchsorted(-fs, -level) for fs in system.f(S)])
        landed = np.array([
            seg.status == "converged" and d <= 1e-3 for seg, d in zip(segs, dist)
        ])
        tags = [
            f"crit:{self.critical_points[i].id}" if hit
            else "exit" if seg.status == "exited" else "lost"
            for seg, i, hit in zip(segs, near, landed)
        ]
        rows = np.flatnonzero(landed & (ks > 0) & (ks < S.shape[1]))
        P = S[:, -1].copy()
        k = ks[rows]
        P[rows] = _level_crossings(
            system, [segs[r].sol for r in rows], T[rows, k - 1], T[rows, k],
            np.full(len(rows), level), S[rows, k],
        )
        return list(zip(tags, system.embed(P)))

    def _sweep(self, p) -> dict:
        if p.id in self._sweeps:
            return self._sweeps[p.id]
        system = self.system
        crits = self.critical_points
        frame = _unstable_frame(system, p)
        saddles = [c for c in crits if c.index == p.index - 1 and c.value < p.value]
        sinks = [c for c in crits if c.index == p.index - 2]
        if sinks and saddles:
            level = 0.5 * (
                min(s.value for s in saddles) + max(k.value for k in sinks)
            )
        elif sinks:
            level = 0.5 * (p.value + min(k.value for k in sinks))
        else:
            level = p.value - 0.5
        n = self.resolution
        angles = np.arange(n) / n * TWO_PI
        marks = self._classify(p, frame, angles, level)
        gaps = [
            np.linalg.norm(marks[i][1] - marks[(i + 1) % n][1])
            for i in range(n)
            if marks[i][0] == marks[(i + 1) % n][0]
        ]
        med = float(np.median(gaps)) if gaps else 0.05
        thresh = max(3.0 * med, 0.02)
        candidates = [
            [angles[i], angles[(i + 1) % n] + (TWO_PI if i == n - 1 else 0.0),
             marks[i], marks[(i + 1) % n]]
            for i in range(n)
            if marks[i][0] != marks[(i + 1) % n][0]
            or np.linalg.norm(marks[i][1] - marks[(i + 1) % n][1]) > thresh
        ]
        # bisect every candidate in lockstep, _LOOKAHEAD rounds per
        # batch: the batch shoots every midpoint those rounds could
        # visit, and the rounds then replay from its marks.  Rows are
        # independent, so each candidate ends where bisecting it alone,
        # one shot per round, would
        for step in range(60):
            open_ = [c for c in candidates if c[1] - c[0] >= 1e-12]
            if not open_:
                break
            if step % _LOOKAHEAD == 0:
                depth = min(_LOOKAHEAD, 60 - step)
                ahead = [m for c in open_ for m in _bisection_mids(c[0], c[1], depth)]
                shot = dict(zip(ahead, self._classify(p, frame, ahead, level)))
            for c in open_:
                lo, hi, mark_lo, mark_hi = c
                mid = 0.5 * (lo + hi)
                mark_mid = shot[mid]
                if mark_mid[0] == mark_lo[0] and (
                    mark_mid[0] != mark_hi[0]
                    or np.linalg.norm(mark_mid[1] - mark_lo[1])
                    <= np.linalg.norm(mark_mid[1] - mark_hi[1])
                ):
                    c[0], c[2] = mid, mark_mid
                elif mark_mid[0] == mark_hi[0]:
                    c[1], c[3] = mid, mark_mid
                else:
                    # the midpoint shot itself converged elsewhere: it is
                    # essentially on the separating trajectory
                    c[0] = c[1] = mid
        raw_special = [
            0.5 * (lo + hi)
            for lo, hi, mark_lo, mark_hi in candidates
            # a gap that closed under refinement is not a real jump
            if not (
                hi - lo > 1e-10
                or (
                    mark_lo[0] == mark_hi[0]
                    and np.linalg.norm(mark_lo[1] - mark_hi[1]) < 1e-4
                )
            )
        ]
        distinct = []
        seen_angles: list[float] = []
        for angle in raw_special:
            wrapped = angle % TWO_PI
            if any(
                min(abs(wrapped - s), TWO_PI - abs(wrapped - s)) < 1e-7
                for s in seen_angles
            ):
                continue
            seen_angles.append(wrapped)
            distinct.append(angle)
        X = self._launch(p, frame, distinct)
        hugs = []
        for angle, x, seg in zip(distinct, X, integrate_flow(system, X, samples=600)):
            # which saddle does the limiting shot hug?
            emb = system.embed(seg.states)
            d = [
                float(np.linalg.norm(emb - system.embed([s.location])[0], axis=1).min())
                for s in saddles
            ]
            if d and min(d) <= 1e-3:
                hugs.append((angle, x, seg, saddles[np.argmin(d)], min(d)))
        prefixes = self._back_prefix(p, [h[1] for h in hugs])
        trajs = _make_trajectories(
            system, p, [h[3] for h in hugs], [h[2] for h in hugs],
            [h[0] for h in hugs], prefixes, truncate=True,
        )
        special = [
            {"angle": angle % TWO_PI, "target": best.id, "approach": bdist,
             "trajectory": traj}
            for (angle, x, seg, best, bdist), traj in zip(hugs, trajs)
        ]
        special.sort(key=lambda s: s["angle"])
        result = {
            "frame": frame, "level": level, "angles": angles, "marks": marks,
            "candidates": candidates, "special": special,
        }
        self._sweeps[p.id] = result
        return result

    # -- one-dimensional moduli -----------------------------------------

    def _shot_trajectory(self, p, q, angles, samples=500) -> list[Trajectory]:
        """One trajectory of (p, q) per shooting angle; the forward shots
        and their backward prefixes each run as one batch."""
        sweep = self._sweep(p)
        X = self._launch(p, sweep["frame"], angles)
        # prefixes first: their dense outputs are gone once sampled, so
        # they never sit in memory beside the forward ones
        prefixes = self._back_prefix(p, X)
        segs = integrate_flow(self.system, X, samples=samples)
        return _make_trajectories(
            self.system, p, [q] * len(segs), segs, angles, prefixes
        )

    def _one_dim_moduli(self, p, q) -> PairData | None:
        sweep = self._sweep(p)
        special = sweep["special"]
        sink_tag = f"crit:{q.id}"
        if not special:
            hits = [m for m in sweep["marks"] if m[0] == sink_tag]
            if not hits:
                return None
            # closed one-parameter family: no broken boundary
            circ = self._loop_length(p, q)
            return PairData((p.id, q.id), 1, circle=circ)
        angles = [s["angle"] for s in special]
        spans = []
        for i, lo in enumerate(angles):
            hi = angles[(i + 1) % len(angles)]
            spans.append((lo, hi + TWO_PI if hi <= lo else hi))
        mids = [0.5 * (lo + hi) for lo, hi in spans]
        marks = self._classify(p, sweep["frame"], mids, sweep["level"])
        arcs = [
            ModuliArc(lo, hi, ends=(None, None))
            for (lo, hi), mark in zip(spans, marks)
            if mark[0] == sink_tag
        ]
        if not arcs:
            return None
        data = PairData((p.id, q.id), 1, arcs=arcs)
        self._match_arc_ends(p, q, data)
        return data

    # -- broken-limit matching ------------------------------------------

    def _broken_parts(self, p, q, junction_id):
        left = self.pairs[(p.id, junction_id)].trajectories
        right = self.pairs[(junction_id, q.id)].trajectories
        return left, right

    def _special_by_angle(self, p, angle):
        for s in self._sweep(p)["special"]:
            if abs((s["angle"] - angle) % TWO_PI) < 1e-9 or abs(
                (s["angle"] - angle) % TWO_PI - TWO_PI
            ) < 1e-9:
                return s
        raise InputError(f"no special shot at angle {angle}")

    def _match_arc_ends(self, p, q, data: PairData):
        sides = [
            (arc, side, angle)
            for arc in data.arcs
            for side, angle in ((0, arc.angle_lo), (1, arc.angle_hi))
        ]
        # below ~1e-8 the saddle passage is at integrator noise level and
        # the probe may hop branches; 1e-6 is safe.  One batch probes
        # every end and shoots every arc's two midpoints, where its end
        # tables meet.
        probe_angles = [
            angle + (1 if side == 0 else -1)
            * min(1e-6, 1e-3 * (arc.angle_hi - arc.angle_lo))
            for arc, side, angle in sides
        ]
        mid_angles = []
        for arc in data.arcs:
            half = _end_offsets(arc)[-1]
            mid_angles += [arc.angle_lo + half, arc.angle_hi - half]
        shots = self._shot_trajectory(p, q, probe_angles + mid_angles)
        probes, mids = shots[:len(sides)], shots[len(sides):]
        ends = []
        for (arc, side, angle), probe in zip(sides, probes):
            special = self._special_by_angle(p, angle)
            junction = special["target"]
            for part in ((p.id, junction), (junction, q.id)):
                if part not in self.pairs:
                    # the broken limit's half never lands: the saddle's
                    # descent runs into another saddle instead
                    raise InputError(
                        f"arc of ({p.id},{q.id}) breaks at {junction} at "
                        f"special angle {angle:.12g}, but ({part[0]},{part[1]}) "
                        "has no isolated trajectory: a saddle-saddle "
                        "connection, so the flow is not Morse-Smale"
                    )
            left, right = self._broken_parts(p, q, junction)
            li = next(
                i for i, t in enumerate(left)
                if abs(t.angle - special["trajectory"].angle) < 1e-9
            )
            best_ri, best_h = None, np.inf
            for ri, rtraj in enumerate(right):
                h = hausdorff_to_union(
                    probe.points,
                    [left[li].points, rtraj.points],
                )
                if h < best_h:
                    best_ri, best_h = ri, h
            ends.append(
                ArcEndData(
                    junction=junction, left_index=li, right_index=best_ri,
                    angle=angle, hausdorff=best_h,
                )
            )
        for i, arc in enumerate(data.arcs):
            arc.ends = tuple(ends[2 * i:2 * i + 2])
            arc.length = self._arc_length(p, q, arc, *mids[2 * i:2 * i + 2])

    # -- arc-length tables (gluing parameter) ---------------------------

    def _end_table(self, p, q, arc: ModuliArc, side: int):
        """Cumulative Hausdorff-metric arc length from one arc end.

        Returns (offsets from the end angle, cumulative lengths), both
        increasing, starting at the boundary (offset ~0, length 0).
        The first call shoots the tables of both ends as one batch.
        """
        if side not in arc._tables:
            offsets = _end_offsets(arc)
            angles = np.concatenate([arc.angle_lo + offsets, arc.angle_hi - offsets])
            trajs = self._shot_trajectory(p, q, angles, samples=300)
            for key, end_data in enumerate(arc.ends):
                half = trajs[key * len(offsets):(key + 1) * len(offsets)]
                left, right = self._broken_parts(p, q, end_data.junction)
                broken = [
                    left[end_data.left_index].points,
                    right[end_data.right_index].points,
                ]
                # distance from the innermost sample to the boundary itself
                lengths = [hausdorff_to_union(half[0].points, broken)]
                for a, b in zip(half, half[1:]):
                    lengths.append(lengths[-1] + hausdorff(a.points, b.points))
                arc._tables[key] = (offsets, np.array(lengths))
        return arc._tables[side]

    def _arc_length(self, p, q, arc: ModuliArc, mid0, mid1) -> float:
        """The arc's length: both end tables, plus the distance between
        their innermost shots ``mid0`` and ``mid1``, which meet at the
        arc midpoint."""
        len0 = self._end_table(p, q, arc, 0)[1]
        len1 = self._end_table(p, q, arc, 1)[1]
        return float(len0[-1] + len1[-1] + hausdorff(mid0.points, mid1.points))

    def _loop_length(self, p, q) -> float:
        n = max(self.resolution, 32)
        angles = np.arange(n + 1) / n * TWO_PI
        trajs = self._shot_trajectory(p, q, angles, samples=200)
        total = 0.0
        for a, b in zip(trajs, trajs[1:]):
            total += hausdorff(a.points, b.points)
        return total

    # -- gluing ---------------------------------------------------------

    def glue(self, gamma1: Trajectory, gamma2: Trajectory, lam: float) -> Trajectory:
        """The unbroken trajectory at gluing parameter lam > 0.

        gamma1 and gamma2 are an adjacent broken pair; lam is Hausdorff
        arc length of the 1-dim moduli space measured from that broken
        boundary point.
        """
        if lam <= 0:
            raise RangeError(f"gluing parameter must be positive, got {lam}")
        p_id, junction, q_id = gamma1.source, gamma1.target, gamma2.target
        if gamma2.source != junction:
            raise InputError("trajectories do not share a junction")
        pair = self.pairs.get((p_id, q_id))
        if pair is None or pair.dim != 1:
            raise InputError(f"no one-dimensional moduli for ({p_id},{q_id})")
        left, right = self._broken_parts(
            self.by_id[p_id], self.by_id[q_id], junction
        )
        li = next(
            i for i, t in enumerate(left) if abs(t.angle - gamma1.angle) < 1e-9
        )
        ri = next(
            i for i, t in enumerate(right) if abs(t.angle - gamma2.angle) < 1e-9
        )
        for arc in pair.arcs:
            for side, end in enumerate(arc.ends):
                if (
                    end.junction == junction
                    and end.left_index == li
                    and end.right_index == ri
                ):
                    return self._glue_on_arc(p_id, q_id, arc, side, lam)
        raise InputError("broken pair does not bound any computed arc")

    def _glue_on_arc(self, p_id, q_id, arc, side, lam):
        p = self.by_id[p_id]
        q = self.by_id[q_id]
        offsets, lengths = self._end_table(p, q, arc, side)
        if lam > lengths[-1]:
            raise RangeError(
                f"gluing parameter {lam} beyond arc extent {lengths[-1]:.4g}"
            )
        off = float(np.interp(lam, lengths, offsets))
        end = arc.angle_lo if side == 0 else arc.angle_hi
        sign = 1.0 if side == 0 else -1.0
        return self._shot_trajectory(p, q, [end + sign * off])[0]

    # -- export ---------------------------------------------------------

    def to_family(self) -> StratifiedFamily:
        """Assemble the stratified family of all compactified moduli."""
        points = [
            CriticalPoint(c.id, index=c.index) for c in self.critical_points
        ]
        moduli = {}
        for (pid, qid), data in self.pairs.items():
            if data.dim == 0:
                moduli[(pid, qid)] = PairModuli(
                    (pid, qid), 0, count=len(data.trajectories)
                )
            elif data.circle is not None:
                moduli[(pid, qid)] = PairModuli(
                    (pid, qid), 1, circle=data.circle
                )
            else:
                arcs = []
                for arc in data.arcs:
                    if any(e is None for e in arc.ends):
                        raise InputError(
                            f"arc of ({pid},{qid}) has an unresolved end"
                        )
                    arcs.append(
                        ArcData(
                            length=arc.length,
                            ends=tuple(
                                ArcEnd(e.junction, e.left_index, e.right_index)
                                for e in arc.ends
                            ),
                        )
                    )
                moduli[(pid, qid)] = PairModuli((pid, qid), 1, arcs=tuple(arcs))
        return from_morse(
            points, self.relations(), moduli, name=self.system.name
        )


def _end_offsets(arc, depth: int = 25) -> np.ndarray:
    """Shooting offsets of an end table, from either end of the arc:
    halving towards the end, the largest reaching the arc midpoint."""
    span = arc.angle_hi - arc.angle_lo
    return span * 0.5 * (0.5 ** np.arange(depth))[::-1]


def _bisection_mids(lo, hi, depth):
    """Midpoints of every bracket that ``depth`` rounds of bisecting
    [lo, hi] could shoot: each open bracket's midpoint, then both of
    its halves, level by level."""
    mids, level = [], [(lo, hi)]
    for _ in range(depth):
        halves = []
        for a, b in level:
            if b - a >= 1e-12:
                m = 0.5 * (a + b)
                mids.append(m)
                halves += [(a, m), (m, b)]
        level = halves
    return mids


# ---------------------------------------------------------------------
# module-level operation wrappers
# ---------------------------------------------------------------------


def analyze(system: MorseSystem, resolution: int = 64) -> ModuliAnalysis:
    return ModuliAnalysis(system, resolution=resolution)


def find_trajectories(system, p, q, resolution: int = 64, analysis=None):
    """Sampled moduli of the pair (p, q).

    Returns the isolated trajectories for index gap 1, or a sweep of
    family representatives for index gap 2.
    """
    analysis = analysis or analyze(system, resolution)
    pid = p if isinstance(p, str) else p.id
    qid = q if isinstance(q, str) else q.id
    data = analysis.pairs.get((pid, qid))
    if data is None:
        return []
    if data.dim == 0:
        return list(data.trajectories)
    pc = analysis.by_id[pid]
    qc = analysis.by_id[qid]
    if data.circle is not None:
        n = resolution
        return analysis._shot_trajectory(
            pc, qc, np.arange(n) / n * TWO_PI, samples=200
        )
    angles = [
        arc.angle_lo + frac * (arc.angle_hi - arc.angle_lo)
        for arc in data.arcs
        for frac in np.linspace(0.15, 0.85, 5)
    ]
    return analysis._shot_trajectory(pc, qc, angles, samples=200)


def detect_broken(system, p, q, analysis=None):
    """Boundary data of a one-dimensional moduli space: per-arc ends with
    matched broken pairs and their Hausdorff residuals."""
    analysis = analysis or analyze(system)
    pid = p if isinstance(p, str) else p.id
    qid = q if isinstance(q, str) else q.id
    data = analysis.pairs.get((pid, qid))
    if data is None or data.dim != 1:
        raise InputError(f"({pid},{qid}) has no one-dimensional moduli")
    return data


def numerical_glue(system, gamma1, gamma2, lam, analysis=None) -> Trajectory:
    analysis = analysis or analyze(system)
    return analysis.glue(gamma1, gamma2, lam)


def export_family(system, resolution: int = 64, analysis=None) -> StratifiedFamily:
    analysis = analysis or analyze(system, resolution)
    return analysis.to_family()


def check_transversality(system, p, q, analysis=None) -> dict:
    """Heuristic transversality report for one pair.

    Propagates the unstable frame of the source along each isolated
    trajectory with the linearized flow and measures its minimal
    principal angle against the stable space of the target; for pairs
    with no trajectory, reports whether absence is expected.  The first
    call on an analysis transports the frames of every isolated pair
    (``_frame_angles``) and caches the angles there.
    """
    analysis = analysis or analyze(system)
    pid = p if isinstance(p, str) else p.id
    qid = q if isinstance(q, str) else q.id
    pc, qc = analysis.by_id[pid], analysis.by_id[qid]
    expected_dim = pc.index - qc.index - 1
    data = analysis.pairs.get((pid, qid))
    observed_dim = -1 if data is None else data.dim
    report = {
        "pair": (pid, qid),
        "expected_dim": expected_dim,
        "observed_dim": observed_dim,
        "dimension_match": observed_dim == expected_dim
        or (expected_dim < 0 and observed_dim == -1),
        "min_angle": None,
    }
    if data is None or data.dim != 0:
        return report
    if analysis._angles is None:
        analysis._angles = _frame_angles(analysis)
    angles = analysis._angles[(pid, qid)]
    report["min_angle"] = min(angles) if angles else None
    report["transversal"] = report["min_angle"] is None or report["min_angle"] > 1e-3
    return report


def _frame_angles(analysis) -> dict:
    """The angle of every isolated trajectory, listed per pair.

    Each trajectory becomes one augmented row (u, V): its second state
    and the source's unstable frame, flattened.  The rows of each
    unstable dimension are transported together by ``_transport``; the
    angle is then the minimal principal angle between the transported
    frame and the stable space of the target, at the target.
    """
    system, dim = analysis.system, analysis.system.dim
    pairs = [pair for pair, data in sorted(analysis.pairs.items()) if data.dim == 0]
    frames = {p: _unstable_frame(system, analysis.by_id[p]) for p, _ in pairs}
    stable = {q: _stable_space(system, analysis.by_id[q]) for _, q in pairs}
    jobs = [
        (pair, np.concatenate([traj.states[1], frames[pair[0]].ravel()]))
        for pair in pairs
        for traj in analysis.pairs[pair].trajectories
    ]
    moved = [None] * len(jobs)
    for k in sorted({frame.shape[1] for frame in frames.values()}):
        group = [i for i, (pair, _) in enumerate(jobs) if frames[pair[0]].shape[1] == k]
        ends = _transport(system, np.array([jobs[i][1] for i in group]), k)
        for i, z in zip(group, ends):
            moved[i] = z[dim:].reshape(dim, k)
    angles = {pair: [] for pair in pairs}
    target_dim = 2 if system.on_sphere else dim
    for (pair, _), V in zip(jobs, moved):
        # transversality: the transported unstable frame and the stable
        # space of the target must jointly span the whole tangent space
        combined = np.hstack([V, stable[pair[1]]])
        if combined.shape[1] < target_dim:
            angles[pair].append(0.0)
            continue
        sv = np.linalg.svd(combined, compute_uv=False)
        angles[pair].append(float(np.arcsin(np.clip(sv[target_dim - 1], 0.0, 1.0))))
    return angles


def _transport(system, Z, k) -> np.ndarray:
    """Flow the rows (u, V) of Z under du/dt = rhs(u), dV/dt = J(u) V.

    J is the central-difference Jacobian of ``rhs`` (``fd_jacobian``'s
    stencil, step 1e-6, every row's in one ``rhs`` call).  Rows advance
    in legs of 4 time units (DOP853, rtol 1e-8, atol 1e-10), their
    frames re-orthonormalized between legs, since the dominant exponent
    would overflow over a long trajectory.  A row stops once its speed
    is below 1e-7, or after 60 legs.
    """
    dim, step = system.dim, 1e-6
    shifts = np.eye(dim)[:, None] * step  # (axis, 1, dim)

    def field(Y):
        u = Y[:, :dim]
        stencil = np.concatenate([u[None], u + shifts, u - shifts])
        F = system.rhs(stencil.reshape(-1, dim)).reshape(2 * dim + 1, len(u), dim)
        # J[i, r] is column i of row r's Jacobian
        J = (F[1:dim + 1] - F[dim + 1:]) / (2 * step)
        out = np.empty_like(Y)
        out[:, :dim] = F[0]
        out[:, dim:] = np.einsum(
            "ira,ric->rac", J, Y[:, dim:].reshape(len(u), dim, k)
        ).reshape(len(u), -1)
        return out

    Z = np.array(Z, dtype=float)
    live = np.arange(len(Z))
    for _ in range(60):
        paths = dop853_rows(field, Z[live], (0.0, 4.0), 1e-8, 1e-10, [])
        ends = np.array([path(4.0) for path in paths])
        frames, _ = np.linalg.qr(ends[:, dim:].reshape(len(live), dim, k))
        ends[:, dim:] = frames.reshape(len(live), -1)
        Z[live] = ends
        live = live[_speed(system.rhs(ends[:, :dim])) >= 1e-7]
        if not len(live):
            break
    return Z


def _stable_space(system, crit) -> np.ndarray:
    """Orthonormal columns spanning the stable space of the flow at a
    critical point (tangent to the sphere on the sphere)."""
    w, v = _linearization(system, crit.location)
    return np.linalg.qr(v[:, w < 0])[0]
