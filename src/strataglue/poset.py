"""Finite posets of critical points and their chains.

A poset element models a critical point (an opaque id plus an optional
index).  A chain is an ordered tuple ``(r_0, ..., r_{k+1})`` of ids that
strictly decreases in the order at every step; its length is ``k``, so a
bare pair has length 0.  All posets here are finite and immutable after
construction: the order relation is stored transitively closed, which
makes comparability queries O(1) and keeps chain enumeration simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError


@dataclass(frozen=True)
class CriticalPoint:
    """A poset element: unique id and optional (Morse) index."""

    id: str
    index: int | None = None

    def __post_init__(self):
        if self.index is not None and self.index < 0:
            raise InputError(f"negative index for point {self.id!r}")


@dataclass(frozen=True)
class Chain:
    """An ordered tuple of ids, strictly decreasing in the poset order.

    Equality and hashing are by id sequence only; chains do not hold a
    reference to the poset they came from.
    """

    points: tuple[str, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise InputError("a chain needs at least head and tail")
        if len(set(self.points)) != len(self.points):
            raise InputError(f"repeated point in chain {self.points}")

    @property
    def head(self) -> str:
        return self.points[0]

    @property
    def tail(self) -> str:
        return self.points[-1]

    @property
    def interior(self) -> tuple[str, ...]:
        """The points strictly between head and tail, in chain order."""
        return self.points[1:-1]

    @property
    def length(self) -> int:
        """Number of interior points, i.e. |I| = k for (r_0..r_{k+1})."""
        return len(self.points) - 2

    @property
    def pair(self) -> tuple[str, str]:
        return (self.head, self.tail)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        return "Chain(" + "-".join(self.points) + ")"


class CriticalPoset:
    """A finite strict partial order on critical points.

    ``relations`` may be any generating set of (above, below) pairs; the
    stored relation is the transitive closure.  Construction fails on
    cycles (including self-relations).
    """

    def __init__(
        self,
        points: Iterable[CriticalPoint | str],
        relations: Iterable[tuple[str, str]] = (),
    ):
        pts: dict[str, CriticalPoint] = {}
        for p in points:
            if isinstance(p, str):
                p = CriticalPoint(p)
            if p.id in pts:
                raise InputError(f"duplicate point id {p.id!r}")
            pts[p.id] = p
        self._points = pts

        above: dict[str, set[str]] = {pid: set() for pid in pts}
        for a, b in relations:
            for pid in (a, b):
                if pid not in pts:
                    raise InputError(f"relation uses unknown id {pid!r}")
            if a == b:
                raise InputError(f"reflexive relation on {a!r}")
            above[a].add(b)
        # transitive closure (posets here are small)
        changed = True
        while changed:
            changed = False
            for a in above:
                extra = set().union(*(above[b] for b in above[a])) - above[a]
                if extra:
                    above[a] |= extra
                    changed = True
        for a in above:
            if a in above[a]:
                raise InputError(f"cycle through {a!r}")
        self._below = {a: frozenset(bs) for a, bs in above.items()}

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._points))

    @property
    def points(self) -> tuple[CriticalPoint, ...]:
        return tuple(self._points[i] for i in self.ids)

    def point(self, pid: str) -> CriticalPoint:
        try:
            return self._points[pid]
        except KeyError:
            raise InputError(f"unknown point id {pid!r}") from None

    def __contains__(self, pid: str) -> bool:
        return pid in self._points

    def precedes(self, a: str, b: str) -> bool:
        """True iff a is strictly above b (a > b in the stored order)."""
        self.point(a), self.point(b)
        return b in self._below[a]

    def below(self, a: str) -> frozenset[str]:
        """All ids strictly below ``a``."""
        self.point(a)
        return self._below[a]

    def pairs(self) -> list[tuple[str, str]]:
        """All comparable pairs (p, q) with p strictly above q, sorted."""
        return sorted((a, b) for a in self._below for b in self._below[a])

    def chain(self, seq: Sequence[str]) -> Chain:
        """Build a Chain after checking it against this poset."""
        if not is_chain(self, seq):
            raise InputError(f"{tuple(seq)} is not a chain of this poset")
        return Chain(tuple(seq))


def is_chain(poset: CriticalPoset, seq: Sequence[str]) -> bool:
    """True iff ``seq`` strictly decreases in the order at every step."""
    ids = list(seq)
    for pid in ids:
        poset.point(pid)
    if len(ids) < 2 or len(set(ids)) != len(ids):
        return False
    return all(poset.precedes(a, b) for a, b in zip(ids, ids[1:]))


def is_subchain(sub: Chain, chain: Chain) -> bool:
    """True iff sub <= chain: same head, same tail, points a subset."""
    if sub.head != chain.head or sub.tail != chain.tail:
        return False
    return set(sub.points) <= set(chain.points)


def concat_chains(first: Chain, second: Chain) -> Chain:
    """Join two chains sharing a junction point, which appears once.

    The result has length |first| + |second| + 1.
    """
    if first.tail != second.head:
        raise InputError(
            f"cannot concatenate: tail {first.tail!r} != head {second.head!r}"
        )
    return Chain(first.points + second.points[1:])


def enumerate_chains(poset: CriticalPoset, p: str, q: str) -> list[Chain]:
    """All chains with head p and tail q, in lexicographic id order."""
    if not poset.precedes(p, q):
        raise InputError(f"{p!r} is not above {q!r}")
    middle = sorted(pid for pid in poset.below(p) if poset.precedes(pid, q))
    # a stack, not a recursive closure: the closure's self-reference is a
    # cycle that keeps every call's chains alive until a full collection
    out: list[Chain] = []
    stack = [(p,)]
    while stack:
        prefix = stack.pop()
        out.append(Chain(prefix + (q,)))
        stack.extend(prefix + (r,) for r in middle if poset.precedes(prefix[-1], r))
    out.sort(key=lambda c: c.points)
    return out


def pair_length(poset: CriticalPoset, p: str, q: str) -> int:
    """sup of |I| over chains from p to q; -1 when p is not above q."""
    if not poset.precedes(p, q):
        return -1
    return max(c.length for c in enumerate_chains(poset, p, q))
