"""Polytopal manifolds with corners, their strata and faces.

A space is a disjoint union of box pieces.  Each piece is a product of
intervals together with the set of *recorded* walls: the facets that
count as boundary.  Depth, strata and faces are all read off the
recorded walls, which keeps every geometric predicate exact.  A piece
may record only some of its geometric walls (the stratified families
built elsewhere use boxes whose upper walls carry no strata), and an
axis may be flagged periodic (used for circle-shaped moduli spaces).

Points and distances are all in box coordinates: a point is a
piece index with its coordinates in that piece's box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import InputError

#: tolerance for deciding that a coordinate sits on a wall
WALL_TOL = 1e-12

#: sampled coordinates stay this fraction of their side inside the box
SAMPLE_MARGIN = 1e-3


@dataclass(frozen=True, order=True)
class Wall:
    """One facet of a box piece: an axis and a side (0 lower, 1 upper)."""

    axis: int
    side: int

    @property
    def inward_sign(self) -> int:
        return 1 if self.side == 0 else -1


@dataclass(frozen=True)
class BoxPiece:
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    walls: frozenset[Wall]
    periodic: frozenset[int] = frozenset()

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise InputError("lower/upper bound length mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if not hi > lo:
                raise InputError(f"empty interval [{lo}, {hi}]")
        for w in self.walls:
            if not 0 <= w.axis < len(self.lower) or w.side not in (0, 1):
                raise InputError(f"wall {w} out of range")
            if w.axis in self.periodic:
                raise InputError(f"wall {w} on periodic axis")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def wall_value(self, wall: Wall) -> float:
        return (self.lower, self.upper)[wall.side][wall.axis]

    def wall_offset(self, coords: np.ndarray, wall: Wall) -> np.ndarray:
        """Distance of coords from the wall, measured inward (>= 0 inside)."""
        c = np.asarray(coords, dtype=float)[..., wall.axis]
        return wall.inward_sign * (c - self.wall_value(wall))

    def contains(self, coords):
        """Whether the point, or each (..., dim) row, lies in the box, to
        within ``WALL_TOL``."""
        c = np.asarray(coords, dtype=float)
        if c.shape[-1] != self.dim:
            return np.zeros(c.shape[:-1], dtype=bool)
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        per = np.array([a in self.periodic for a in range(self.dim)], dtype=bool)
        return (((c >= lo - WALL_TOL) & (c <= hi + WALL_TOL)) | per).all(axis=-1)

    def walls_at(self, coords):
        """Recorded walls the point lies on (to within ``WALL_TOL``); for
        an (n, dim) block, a list with one wall set per row, read off one
        (rows, walls) mask."""
        walls = sorted(self.walls)
        c = np.asarray(coords, dtype=float)
        rows = np.atleast_2d(c)[:, [w.axis for w in walls]]
        on = np.abs(rows - [self.wall_value(w) for w in walls]) <= WALL_TOL
        sets = [frozenset(w for w, hit in zip(walls, row) if hit) for row in on]
        return sets if c.ndim > 1 else sets[0]

    def sample(self, count: int, rng, walls=()) -> np.ndarray:
        """``count`` random rows of box coordinates, each coordinate at
        least ``SAMPLE_MARGIN`` of its side inside the box, then pinned to
        the given walls."""
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        u = rng.uniform(SAMPLE_MARGIN, 1 - SAMPLE_MARGIN, size=(count, self.dim))
        coords = lo + (hi - lo) * u
        for w in walls:
            coords[:, w.axis] = self.wall_value(w)
        return coords


@dataclass(frozen=True)
class Face:
    """A union of pairwise disjoint wall closures sharing one label."""

    label: str
    components: tuple[tuple[int, Wall], ...]  # (piece index, wall)


@dataclass(frozen=True)
class StratumPatch:
    """One box-level piece of a stratum: a piece with a set of pinned walls."""

    piece: int
    walls: frozenset[Wall]


class CorneredSpace:
    """A disjoint union of box pieces with labelled walls."""

    def __init__(
        self,
        pieces,
        face_labels: dict[tuple[int, Wall], str] | None = None,
        name: str = "",
    ):
        self.pieces: tuple[BoxPiece, ...] = tuple(pieces)
        if not self.pieces:
            raise InputError("a space needs at least one piece")
        dims = {p.dim for p in self.pieces}
        if len(dims) != 1:
            raise InputError(f"mixed piece dimensions {dims}")
        self.dim = dims.pop()
        labels = {}
        for i, piece in enumerate(self.pieces):
            for w in sorted(piece.walls):
                labels[(i, w)] = f"f{i}.{w.axis}.{w.side}"
        if face_labels:
            for key, lab in face_labels.items():
                if key not in labels:
                    raise InputError(f"label for unknown wall {key}")
                labels[key] = lab
        self.face_labels = labels
        self.name = name

    # -- point queries ------------------------------------------------

    def piece_of(self, point) -> tuple[int, np.ndarray]:
        """Check a (piece, coords) point, or a block of (..., dim) rows on
        one piece; the first row outside the piece is named."""
        i, coords = point
        coords = np.asarray(coords, dtype=float)
        if not 0 <= i < len(self.pieces):
            raise InputError(f"no piece {i}")
        inside = self.pieces[i].contains(coords)
        if not inside.all():
            bad = coords if coords.ndim == 1 else coords[~inside][0]
            raise InputError(f"coords {bad} outside piece {i}")
        return i, coords

    def depth(self, point):
        """Number of recorded walls the point, or each row, lies on."""
        i, coords = self.piece_of(point)
        walls = self.pieces[i].walls_at(coords)
        return np.array([len(w) for w in walls]) if coords.ndim > 1 else len(walls)

    def walls_at(self, point):
        i, coords = self.piece_of(point)
        return self.pieces[i].walls_at(coords)

    def distance(self, a, b) -> np.ndarray:
        """Euclidean distance in box coordinates between two points, or
        row by row between two blocks of rows on one piece each; +inf
        across pieces.  Broadcasts like the coordinate arrays."""
        diff = np.asarray(a[1], dtype=float) - np.asarray(b[1], dtype=float)
        if a[0] != b[0]:
            return np.full(diff.shape[:-1], np.inf)
        return np.linalg.norm(diff, axis=-1)

    # -- faces ---------------------------------------------------------

    def connected_faces(self) -> list[Face]:
        """The faces of the space, one per wall label, sorted by label."""
        by_label: dict[str, list[tuple[int, Wall]]] = {}
        for key, lab in self.face_labels.items():
            by_label.setdefault(lab, []).append(key)
        return [
            Face(lab, tuple(sorted(comps)))
            for lab, comps in sorted(by_label.items())
        ]

    def check_manifold_with_faces(self):
        """Each point must lie in closures of depth-many distinct faces.

        Checked on every corner stratum of every piece (exact for box
        pieces).  Returns (ok, witness) where the witness is a stratum
        patch whose pinned walls do not meet distinct faces.
        """
        for i, piece in enumerate(self.pieces):
            for patch in self._piece_patches(i):
                labels = {self.face_labels[(i, w)] for w in patch.walls}
                if len(labels) != len(patch.walls):
                    return False, patch
        return True, None

    def _piece_patches(self, i: int) -> list[StratumPatch]:
        patches = []
        walls = sorted(self.pieces[i].walls)
        for k in range(len(walls) + 1):
            for combo in combinations(walls, k):
                if len({w.axis for w in combo}) != len(combo):
                    continue  # opposite walls of one axis never meet
                patches.append(StratumPatch(i, frozenset(combo)))
        return patches

    def stratum_patches(self) -> list[StratumPatch]:
        """All corner strata of all pieces, the empty pinning included."""
        out = []
        for i in range(len(self.pieces)):
            out.extend(self._piece_patches(i))
        return out

    def sample_patches(self, patches, count: int, rng):
        """``count`` random points of the given stratum patches as (piece,
        rows) blocks: every patch draws ceil(count / patches) rows in
        order, and rows past ``count`` are dropped from the end."""
        per = -(-count // max(1, len(patches)))
        blocks, left = [], count
        for patch in patches:
            rows = self.pieces[patch.piece].sample(per, rng, patch.walls)[:left]
            left -= len(rows)
            if len(rows):
                blocks.append((patch.piece, rows))
        return blocks

    def face_intersection(self, faces) -> list[StratumPatch]:
        """Box presentation of the intersection of the given faces.

        Returns the stratum patches making up the intersection; an empty
        list signals an empty intersection.  Faces must have pairwise
        disjoint interiors.
        """
        faces = list(faces)
        labels = [f.label for f in faces]
        if len(set(labels)) != len(labels):
            raise InputError("repeated face in intersection")
        patches = []
        for i, piece in enumerate(self.pieces):
            per_face = [
                [w for (j, w) in f.components if j == i] for f in faces
            ]
            for combo in product(*per_face):
                if len({w.axis for w in combo}) != len(combo):
                    continue
                patches.append(StratumPatch(i, frozenset(combo)))
        return patches


# -- convenience constructors -----------------------------------------


def box_space(sides, active="all", name="") -> CorneredSpace:
    """A single closed box with the given side lengths.

    ``active`` selects the recorded walls: "all" (every facet), "lower"
    (the coordinate-zero facets only), or an explicit iterable of walls.
    """
    sides = [float(s) for s in sides]
    n = len(sides)
    if active == "all":
        walls = [Wall(a, s) for a in range(n) for s in (0, 1)]
    elif active == "lower":
        walls = [Wall(a, 0) for a in range(n)]
    else:
        walls = list(active)
    piece = BoxPiece(
        lower=tuple(0.0 for _ in sides),
        upper=tuple(sides),
        walls=frozenset(walls),
    )
    return CorneredSpace([piece], name=name)


def interval_space() -> CorneredSpace:
    """The unit interval, both ends walls."""
    return box_space([1.0], active="all", name="interval")


def point_space(components: int = 1, name="points") -> CorneredSpace:
    """A 0-dimensional space with the given number of points.

    Zero-dimensional pieces are modelled as degenerate one-point boxes of
    dimension 0.
    """
    pieces = [
        BoxPiece(lower=(), upper=(), walls=frozenset())
        for _ in range(components)
    ]
    return CorneredSpace(pieces, name=name)


def circle_space(circumference: float = 1.0, name="circle") -> CorneredSpace:
    piece = BoxPiece(
        lower=(0.0,),
        upper=(float(circumference),),
        walls=frozenset(),
        periodic=frozenset({0}),
    )
    return CorneredSpace([piece], name=name)
