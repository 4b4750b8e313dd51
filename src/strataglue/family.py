"""Stratified families of compactified spaces over a critical poset.

A family bundles, for every comparable pair (p, q), a compact polytopal
space together with a chain-indexed decomposition into strata and, for
every triple p > r > q, a product embedding of the (p, r) and (r, q)
spaces onto a boundary face of the (p, q) space.  The family is *input
data*: this module validates it and generates concrete instances (cube
families, and families imported from numerically computed moduli data),
it never derives the smooth structures itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
import json

import numpy as np

from .errors import InputError, UnsupportedDimensionError
from .numerics import fd_jacobian
from .poset import Chain, CriticalPoint, CriticalPoset, concat_chains, enumerate_chains
from .spaces import (
    BoxPiece,
    CorneredSpace,
    Wall,
    box_space,
    circle_space,
    point_space,
)

Point = tuple[int, np.ndarray]  # (piece index, box coordinates)


# ---------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class PatchSpec:
    """One box-level patch of a chain stratum.

    ``wall_of`` assigns to each interior point of the chain the pinned
    wall realizing it; its values are exactly the pinned walls.
    """

    piece: int
    wall_of: tuple[tuple[str, Wall], ...]

    @property
    def walls(self) -> frozenset[Wall]:
        return frozenset(w for _, w in self.wall_of)

    def wall(self, point_id: str) -> Wall:
        for pid, w in self.wall_of:
            if pid == point_id:
                return w
        raise InputError(f"{point_id!r} not pinned in this patch")


@dataclass(frozen=True)
class ChainStratum:
    chain: Chain
    patches: tuple[PatchSpec, ...]

    def __post_init__(self):
        for patch in self.patches:
            pinned = {pid for pid, _ in patch.wall_of}
            if pinned != set(self.chain.interior):
                raise InputError(
                    f"patch pins {pinned} but chain interior is "
                    f"{self.chain.interior}"
                )


# ---------------------------------------------------------------------
# product embeddings
# ---------------------------------------------------------------------


class Diffeo:
    """A diffeomorphism of a box given by a forward map and its inverse."""

    def __init__(self, forward, inverse):
        self._forward = forward
        self._inverse = inverse

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return self._forward(np.asarray(w, dtype=float))

    def inverse(self, w: np.ndarray) -> np.ndarray:
        return self._inverse(np.asarray(w, dtype=float))


def _bump_root(y, c):
    """The root t in [0, 1] of t + c*t*(1-t) = y, for |c| < 1 and y in
    [0, 1], in the form that loses no digits as c goes to 0."""
    return 2 * y / ((1 + c) + np.sqrt((1 + c) ** 2 - 4 * c * y))


def shear_diffeo(dim: int, strength: float = 0.2, axis: int = 0,
                 driver: int | None = None) -> Diffeo:
    """A wall-preserving shear of [0,1]^dim: moves ``axis`` by an amount
    vanishing on all coordinate walls of that axis.

    The moved coordinate is t + c*t*(1-t) with c = strength times the
    ``driver`` coordinate, which the shear leaves alone; the inverse is
    the closed-form root of that quadratic.
    """
    if dim < 2:
        raise InputError("shear needs dimension >= 2")
    b = driver if driver is not None else (axis + 1) % dim
    if not (0 <= axis < dim and 0 <= b < dim):
        raise InputError(f"shear axes ({axis}, {b}) out of range for dimension {dim}")
    if b == axis:
        raise InputError("shear driver must differ from the sheared axis")
    if not abs(strength) < 1:
        raise InputError("shear strength must lie in (-1, 1)")

    def fwd(w):
        out = np.array(w, dtype=float)
        out[..., axis] = w[..., axis] + strength * w[..., axis] * (
            1.0 - w[..., axis]
        ) * w[..., b]
        return out

    def inv(y):
        out = np.array(y, dtype=float)
        out[..., axis] = _bump_root(y[..., axis], strength * y[..., b])
        return out

    return Diffeo(fwd, inv)


def stretch_diffeo(dim: int) -> Diffeo:
    """Componentwise t -> t + s*t*(1-t), s = 0.3, on [0,1]^dim.

    Fixes the walls {0} and {1} of every axis but is nonlinear across
    each face, so it breaks affine collar compatibility on junction
    faces (unlike a shear, which is the identity there).  The inverse is
    the closed-form root of the per-coordinate quadratic.  Being
    componentwise, the map does not read ``dim``.
    """
    s = 0.3

    def fwd(w):
        w = np.asarray(w, dtype=float)
        return w + s * w * (1.0 - w)

    return Diffeo(fwd, lambda y: _bump_root(y, s))


def _then(first: Diffeo | None, second: Diffeo) -> Diffeo:
    """The diffeo ``second`` after ``first``; just ``second`` without one."""
    if first is None:
        return second
    return Diffeo(
        lambda w: second(first(w)), lambda y: first.inverse(second.inverse(y))
    )


@dataclass(eq=False)
class FaceEmbedding:
    """Smooth embedding M(p,r)-bar x M(r,q)-bar -> M(p,q)-bar onto walls
    of the target space.

    ``piece_map`` sends each (left piece, right piece) to a (target
    piece, wall).  The image of (u, v) is (u, wall value, v): the left
    factor fills the axes below ``wall.axis`` and the right factor the
    axes above it, followed by the optional diffeo ``target_map`` of the
    target box.  ``flip_axes`` reverses the given left-factor axes
    (u -> 1 - u); this deliberately breaks the stratum correspondence
    and exists to exercise the validator.

    ``forward`` and ``inverse`` take rows: coordinates sit on the last
    axis, so a left and a right factor of stacked coordinates, (n, dl)
    and (n, dr), on one piece each give (n, d) coordinates on one target
    piece, row i equal bit for bit to the single-point image of row i.
    ``inverse`` needs every row of a block on one embedded wall.
    """

    target: CorneredSpace
    piece_map: dict  # (left piece, right piece) -> (target piece, Wall)
    flip_axes: tuple = ()
    target_map: Diffeo | None = None

    def __post_init__(self):
        self.piece_map = dict(self.piece_map)
        self.flip_axes = tuple(self.flip_axes)
        self._images: dict = {}  # piece_map with each wall's axis and value
        for key, (tp, wall) in self.piece_map.items():
            if not 0 <= tp < len(self.target.pieces):
                raise InputError(f"factor pieces {key} map to a missing piece {tp}")
            piece = self.target.pieces[tp]
            if wall not in piece.walls:
                raise InputError(
                    f"factor pieces {key} map to {wall}, which piece {tp} lacks"
                )
            if any(not 0 <= a < wall.axis for a in self.flip_axes):
                raise InputError(
                    f"flip axes {self.flip_axes} out of range for a "
                    f"{wall.axis}-dimensional left factor"
                )
            self._images[key] = (tp, wall.axis, piece.wall_value(wall))

    def _flip(self, u: np.ndarray) -> np.ndarray:
        u = np.array(u, dtype=float)
        for a in self.flip_axes:
            u[..., a] = 1.0 - u[..., a]
        return u

    def forward(self, left: Point, right: Point) -> Point:
        key = (left[0], right[0])
        if key not in self._images:
            raise InputError(f"no target for factor pieces {key}")
        piece, _, value = self._images[key]
        u = self._flip(left[1])
        face = np.empty(u.shape[:-1] + (1,))
        face.fill(value)
        w = np.concatenate([u, face, right[1]], axis=-1)
        return piece, w if self.target_map is None else self.target_map(w)

    def inverse(self, point: Point) -> tuple[Point, Point]:
        piece, w = point
        w = np.asarray(w, dtype=float) if self.target_map is None else (
            self.target_map.inverse(w)
        )
        for (li, ri), (tp, axis, value) in self._images.items():
            if tp == piece and (np.abs(w[..., axis] - value) <= 1e-9).all():
                u = self._flip(w[..., :axis])
                return (li, u), (ri, np.array(w[..., axis + 1 :], dtype=float))
        raise InputError("points do not lie on one embedded wall")


# ---------------------------------------------------------------------
# the family
# ---------------------------------------------------------------------


class StratifiedFamily:
    def __init__(
        self,
        poset: CriticalPoset,
        spaces: dict,
        strata: dict,
        embeddings: dict,
        name: str = "",
    ):
        self.poset = poset
        self.spaces = dict(spaces)
        self.strata = {s.chain: s for s in strata.values()}
        self.embeddings = dict(embeddings)
        self.name = name
        self._by_patch: dict = {}
        for stratum in self.strata.values():
            pair = stratum.chain.pair
            for patch in stratum.patches:
                key = (pair, patch.piece, patch.walls)
                if key in self._by_patch:
                    raise InputError(
                        f"patch {key} claimed by two chains: "
                        f"{self._by_patch[key].chain} and {stratum.chain}"
                    )
                self._by_patch[key] = (stratum.chain, patch)

    # -- lookups -------------------------------------------------------

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self.spaces)

    def triples(self) -> list[tuple[str, str, str]]:
        return sorted(self.embeddings)

    def space(self, p: str, q: str) -> CorneredSpace:
        try:
            return self.spaces[(p, q)]
        except KeyError:
            raise InputError(f"no space for pair ({p!r}, {q!r})") from None

    def chains(self, p: str, q: str) -> list[Chain]:
        return enumerate_chains(self.poset, p, q)

    def stratum(self, chain: Chain) -> ChainStratum:
        try:
            return self.strata[chain]
        except KeyError:
            raise InputError(f"no stratum for {chain}") from None

    def embedding(self, p: str, r: str, q: str) -> FaceEmbedding:
        try:
            return self.embeddings[(p, r, q)]
        except KeyError:
            raise InputError(f"no embedding for ({p!r},{r!r},{q!r})") from None

    def classify(self, pair, point):
        """The chain whose stratum contains the point, if any; for a block
        of (n, d) rows on one piece, a list with one entry per row."""
        space = self.space(*pair)
        piece, coords = space.piece_of(point)
        walls = space.pieces[piece].walls_at(np.atleast_2d(coords))
        chains = [self._by_patch.get((pair, piece, ws), (None,))[0] for ws in walls]
        return chains if coords.ndim > 1 else chains[0]

    def patch_for(self, chain: Chain, piece: int) -> PatchSpec | None:
        for patch in self.stratum(chain).patches:
            if patch.piece == piece:
                return patch
        return None

    # -- sampling ------------------------------------------------------

    def sample_blocks(self, chain: Chain, count: int, rng):
        """Random points of a chain stratum, as (piece, rows) blocks drawn
        by ``CorneredSpace.sample_patches`` over the stratum's patches;
        ``count = per * len(patches)`` gives ``per`` rows on each patch.
        The one sampler of strata."""
        patches = self.stratum(chain).patches
        return self.space(*chain.pair).sample_patches(patches, count, rng)


# ---------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    subject: str
    passed: bool
    residual: float = 0.0
    witness: str = ""


@dataclass
class FamilyReport:
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, name, subject, passed, residual=0.0, witness=""):
        self.records.append(CheckRecord(name, subject, passed, residual, witness))

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def first_failure(self) -> CheckRecord | None:
        fails = self.failures()
        return fails[0] if fails else None


def validate_family(
    family: StratifiedFamily, samples: int = 64, rng=None, tol: float = 1e-9
) -> FamilyReport:
    """Check the structural and sampled invariants of a family.

    Covers: the chain strata partition each space's recorded corner
    patches with matching depth; product embeddings are injective, full
    rank, stratum-correct; and embeddings cohere on triple products.
    Sampled checks take row blocks, and the product checks run every
    combination of factor pieces.
    """
    rng = np.random.default_rng(rng)
    report = FamilyReport()

    for p, q in family.pairs():
        _check_partition(family, p, q, samples, rng, report)
    for p, r, q in family.triples():
        _check_embedding(family, p, r, q, samples, rng, tol, report)
    _check_coherence(family, samples, rng, tol, report)
    return report


def _check_partition(family, p, q, samples, rng, report):
    space = family.space(p, q)
    subject = f"({p},{q})"
    chains = family.chains(p, q)
    missing = [str(c) for c in chains if c not in family.strata]
    if missing:
        report.add("partition.strata-present", subject, False,
                   witness=f"no stratum for {missing[0]}")
        return
    claimed = {}
    for chain in chains:
        for patch in family.stratum(chain).patches:
            claimed[(patch.piece, patch.walls)] = chain
    ok = True
    for sp in space.stratum_patches():
        key = (sp.piece, sp.walls)
        chain = claimed.get(key)
        if chain is None:
            report.add("partition.covered", subject, False,
                       witness=f"unclaimed patch piece={sp.piece} walls={sorted(sp.walls)}")
            ok = False
            continue
        if chain.length != len(sp.walls):
            report.add("partition.depth", subject, False,
                       witness=f"{chain} has length {chain.length} on a "
                               f"depth-{len(sp.walls)} patch")
            ok = False
    extra = set(claimed) - {(sp.piece, sp.walls) for sp in space.stratum_patches()}
    for key in sorted(extra, key=str):
        report.add("partition.known-patch", subject, False,
                   witness=f"stratum patch {key} is not a patch of the space")
        ok = False
    if ok:
        report.add("partition", subject, True)
    # sampled cross-check: classification and depth agree
    witness = ""
    for chain in chains:
        for block in family.sample_blocks(chain, max(2, samples // 8), rng):
            got = family.classify((p, q), block)
            depth = space.depth(block)
            bad = [i for i, c in enumerate(got) if c != chain or depth[i] != chain.length]
            if bad and not witness:
                witness = f"{chain} sample classified as {got[bad[0]]} at depth {depth[bad[0]]}"
    report.add("partition.sampled", subject, witness == "", witness=witness)


def _per_patch(family, chain, per, rng):
    """``per`` random rows on every patch of a chain stratum, as blocks."""
    return family.sample_blocks(chain, per * len(family.stratum(chain).patches), rng)


def _pairwise(space, blocks) -> np.ndarray:
    """Distances between all rows of the blocks, +inf across pieces."""
    pieces = np.concatenate([np.full(len(X), piece) for piece, X in blocks])
    rows = np.concatenate([X for _, X in blocks])
    out = np.full((len(rows), len(rows)), np.inf)
    for piece in np.unique(pieces):
        on = pieces == piece
        out[np.ix_(on, on)] = space.distance(
            (piece, rows[on][:, None]), (piece, rows[on][None])
        )
    return out


def _check_embedding(family, p, r, q, samples, rng, tol, report):
    emb = family.embedding(p, r, q)
    subject = f"({p},{r},{q})"
    n = max(2, samples // 16)
    # stratum correspondence: M_I1 x M_I2 lands in M_{I1.I2}, checked on
    # every pair of factor pieces
    witness = ""
    products = []
    for lc in family.chains(p, r):
        for rc in family.chains(r, q):
            expected = concat_chains(lc, rc)
            lefts = _per_patch(family, lc, n, rng)
            rights = _per_patch(family, rc, n, rng)
            for left, right in product(lefts, rights):
                image = emb.forward(left, right)
                products.append((left, right, image))
                wrong = [c for c in family.classify((p, q), image) if c != expected]
                if wrong and not witness:
                    witness = f"{lc}*{rc} sample landed in {wrong[0]}, expected {expected}"
    report.add("embedding.stratum", subject, witness == "", witness=witness)
    # injectivity on samples (only pairs with genuinely distinct inputs)
    clash = False
    if products:
        lefts, rights, images = zip(*products)
        same_in = (_pairwise(family.space(p, r), lefts) < 1e-9) & (
            _pairwise(family.space(r, q), rights) < 1e-9
        )
        clash = ((_pairwise(family.space(p, q), images) < 1e-12) & ~same_in).any()
    report.add("embedding.injective", subject, not clash,
               witness="two distinct products map to one point" if clash else "")
    # full-rank differential at interior samples
    nl = family.space(p, r).dim
    if nl + family.space(r, q).dim == 0:
        report.add("embedding.rank", subject, True)
        return
    worst = np.inf
    for (lp, L), (rp, R) in product(
        _per_patch(family, Chain((p, r)), 4, rng), _per_patch(family, Chain((r, q)), 4, rng)
    ):
        def f(z):
            return emb.forward((lp, z[..., :nl]), (rp, z[..., nl:]))[1]

        jac = fd_jacobian(f, np.concatenate([L, R], axis=-1), 1e-6)
        worst = min(worst, float(np.linalg.svd(jac, compute_uv=False)[:, -1].min()))
    report.add("embedding.rank", subject, worst > 1e-9, residual=worst,
               witness="" if worst > 1e-9 else f"smallest singular value {worst:.2e}")


def _check_coherence(family, samples, rng, tol, report):
    quads = []
    for (p, s, q2) in family.triples():
        for (s2, r, q) in family.triples():
            if s2 == s and q2 == q and (p, r, q) in family.embeddings:
                if (s, r, q) in family.embeddings and (p, s, r) in family.embeddings:
                    quads.append((p, s, r, q))
    n = max(2, samples // 16)
    for p, s, r, q in sorted(set(quads)):
        subject = f"({p},{s},{r},{q})"
        worst = 0.0
        witness = ""
        factors = [_per_patch(family, Chain(pair), n, rng) for pair in ((p, s), (s, r), (r, q))]
        for u, v, w in product(*factors):
            left = family.embedding(p, r, q).forward(
                family.embedding(p, s, r).forward(u, v), w
            )
            right = family.embedding(p, s, q).forward(
                u, family.embedding(s, r, q).forward(v, w)
            )
            d = float(family.space(p, q).distance(left, right).max())
            if d > worst:
                worst = d
                if d > tol:
                    witness = (
                        f"associating ({p}>{s}>{r}) then {q} vs {s} then "
                        f"({s}>{r}>{q}) differs by {d:.3e}"
                    )
        report.add("embedding.coherence", subject, worst <= tol,
                   residual=worst, witness=witness)


# ---------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------


def cube_family(n: int) -> StratifiedFamily:
    """The linear model family on p_0 > ... > p_n.

    The (p_i, p_j) space is the unit cube of dimension j - i - 1 whose
    recorded walls are the coordinate-zero facets; slot t of that cube
    belongs to the intermediate point p_{i+t+1}, and the stratum of a
    chain pins exactly the slots of its interior points.  Product
    embeddings insert a zero at the junction slot.
    """
    if not 1 <= n <= 5:
        raise InputError(f"cube_family needs 1 <= n <= 5, got {n}")
    ids = [f"p{i}" for i in range(n + 1)]
    poset = CriticalPoset(
        [CriticalPoint(pid, index=n - i) for i, pid in enumerate(ids)],
        [(ids[i], ids[i + 1]) for i in range(n)],
    )
    spaces = {}
    strata = {}
    embeddings = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            p, q = ids[i], ids[j]
            d = j - i - 1
            spaces[(p, q)] = (
                point_space(1, name=f"M({p},{q})")
                if d == 0
                else box_space([1.0] * d, active="lower", name=f"M({p},{q})")
            )
            for chain in enumerate_chains(poset, p, q):
                wall_of = tuple(
                    (r, Wall(ids.index(r) - i - 1, 0)) for r in chain.interior
                )
                strata[chain] = ChainStratum(chain, (PatchSpec(0, wall_of),))
            for r in range(i + 1, j):
                embeddings[(p, ids[r], q)] = FaceEmbedding(
                    spaces[(p, q)], {(0, 0): (0, Wall(r - i - 1, 0))}
                )
    return StratifiedFamily(poset, spaces, strata, embeddings, name=f"cube{n}")


def with_target_diffeo(
    family: StratifiedFamily, pair: tuple[str, str], diffeo: Diffeo
) -> StratifiedFamily:
    """Recoordinatize one space's embeddings by a wall-preserving diffeo.

    Every embedding into ``pair``'s space is post-composed with the
    diffeo, after any target diffeo it already has.  Because the diffeo
    preserves each coordinate wall, strata and coherence survive; only
    affine-compatibility of collars breaks.
    """
    embeddings = dict(family.embeddings)
    for (p, r, q), emb in family.embeddings.items():
        if (p, q) == pair:
            embeddings[(p, r, q)] = replace(
                emb, target_map=_then(emb.target_map, diffeo)
            )
    return StratifiedFamily(
        family.poset, family.spaces, family.strata, embeddings,
        name=family.name + "+diffeo",
    )


def with_flipped_embedding(
    family: StratifiedFamily, triple: tuple[str, str, str]
) -> StratifiedFamily:
    """Flip the first left-factor axis of one embedding (a mutation for
    tests)."""
    embeddings = dict(family.embeddings)
    embeddings[triple] = replace(family.embedding(*triple), flip_axes=(0,))
    return StratifiedFamily(
        family.poset, family.spaces, family.strata, embeddings,
        name=family.name + "+flip",
    )


# ---------------------------------------------------------------------
# import from Morse moduli data
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ArcEnd:
    """A labelled end of a one-dimensional moduli arc."""

    junction: str
    left_index: int
    right_index: int


@dataclass(frozen=True)
class ArcData:
    length: float
    ends: tuple  # (ArcEnd | None at coordinate 0, ArcEnd | None at length)


@dataclass(frozen=True)
class PairModuli:
    """Shape of one compactified moduli space, as computed numerically."""

    pair: tuple[str, str]
    dim: int
    count: int = 0                      # 0-dim: number of trajectories
    arcs: tuple = ()                    # 1-dim: ArcData entries
    circle: float | None = None         # 1-dim closed: circumference


def from_morse(
    critical_points, relations, moduli: dict, name: str = "morse"
) -> StratifiedFamily:
    """Assemble a family from 0/1-dimensional moduli data: ``moduli``
    maps comparable pairs to records read only for ``dim``, ``count``,
    ``circle``, ``arcs[].length`` and ``arcs[].ends[].{junction,
    left_index, right_index}``, such as PairModuli.  Pairs of dimension
    >= 2 are refused; every broken pair must appear exactly once among
    the arc ends of its pair (an end of None is an open end)."""
    poset = CriticalPoset(critical_points, relations)
    spaces = {}
    strata = {}
    embeddings = {}

    for (p, q), data in sorted(moduli.items()):
        if data.dim >= 2:
            raise UnsupportedDimensionError(
                f"moduli of pair ({p},{q}) has dimension {data.dim}"
            )
        if data.dim == 0:
            if data.count == 0:
                raise InputError(f"empty moduli for comparable pair ({p},{q})")
            spaces[(p, q)] = point_space(data.count, name=f"M({p},{q})")
            chain = Chain((p, q))
            strata[chain] = ChainStratum(
                chain,
                tuple(PatchSpec(i, ()) for i in range(data.count)),
            )
            continue
        if data.circle is not None:
            spaces[(p, q)] = circle_space(data.circle, name=f"M({p},{q})")
            chain = Chain((p, q))
            strata[chain] = ChainStratum(chain, (PatchSpec(0, ()),))
            continue
        pieces = [
            BoxPiece(
                lower=(0.0,),
                upper=(arc.length,),
                walls=frozenset(
                    {Wall(0, side) for side, end in enumerate(arc.ends) if end}
                ),
            )
            for arc in data.arcs
        ]
        space = CorneredSpace(pieces, name=f"M({p},{q})")
        spaces[(p, q)] = space
        bare = Chain((p, q))
        strata[bare] = ChainStratum(
            bare, tuple(PatchSpec(i, ()) for i in range(len(pieces)))
        )
        by_junction: dict[str, list] = {}
        piece_maps: dict[str, dict] = {}
        for i, arc in enumerate(data.arcs):
            for side, end in enumerate(arc.ends):
                if end is None:
                    continue
                wall = Wall(0, side)
                by_junction.setdefault(end.junction, []).append(
                    PatchSpec(i, ((end.junction, wall),))
                )
                key = (end.left_index, end.right_index)
                dest = piece_maps.setdefault(end.junction, {})
                if key in dest:
                    raise InputError(
                        f"broken pair {key} through {end.junction} matched twice"
                    )
                dest[key] = (i, wall)
        junctions = sorted(
            r for r in poset.below(p)
            if poset.precedes(r, q) and (p, r) in moduli and (r, q) in moduli
        )
        for junction in junctions:
            left = moduli[(p, junction)]
            right = moduli[(junction, q)]
            expected = {
                (a, b) for a in range(left.count) for b in range(right.count)
            }
            got = set(piece_maps.get(junction, {}))
            if got != expected:
                missing = sorted(expected - got)
                raise InputError(
                    f"broken pairs {missing} through {junction} have no arc end"
                )
            chain = Chain((p, junction, q))
            strata[chain] = ChainStratum(chain, tuple(by_junction[junction]))
            embeddings[(p, junction, q)] = FaceEmbedding(space, piece_maps[junction])
    return StratifiedFamily(poset, spaces, strata, embeddings, name=name)


# ---------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------


def _num(value) -> float:
    """Parse a decimal-string coordinate exactly, then round to float."""
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


def save_family(family: StratifiedFamily, path) -> None:
    doc = {
        "schema_version": 1,
        "name": family.name,
        "poset": {
            "points": [
                {"id": cp.id, "index": cp.index} for cp in family.poset.points
            ],
            "succ": [[a, b] for a, b in family.poset.pairs()],
        },
        "spaces": {},
        "strata": [],
        "embeddings": [],
    }
    for (p, q), space in sorted(family.spaces.items()):
        doc["spaces"][f"{p}|{q}"] = {
            "dim": space.dim,
            "pieces": [
                {
                    "lower": [repr(x) for x in piece.lower],
                    "upper": [repr(x) for x in piece.upper],
                    "walls": [[w.axis, w.side] for w in sorted(piece.walls)],
                    "periodic": sorted(piece.periodic),
                }
                for piece in space.pieces
            ],
        }
    for chain, stratum in sorted(family.strata.items(), key=lambda kv: kv[0].points):
        doc["strata"].append(
            {
                "chain": list(chain.points),
                "patches": [
                    {
                        "piece": patch.piece,
                        "walls": {
                            pid: [w.axis, w.side] for pid, w in patch.wall_of
                        },
                    }
                    for patch in stratum.patches
                ],
            }
        )
    for (p, r, q), emb in sorted(family.embeddings.items()):
        if emb.target_map is not None:
            raise InputError(f"embedding for ({p},{r},{q}) is not serializable")
        entry = {"triple": [p, r, q]}
        # the slot form: factor pieces (0, 0) on a lower wall of piece 0
        slot = emb.piece_map.get((0, 0))
        if len(emb.piece_map) == 1 and slot and slot[0] == 0 and slot[1].side == 0:
            entry["type"] = "slot"
            entry["left_dim"] = slot[1].axis
            entry["right_dim"] = emb.target.dim - slot[1].axis - 1
        else:
            entry["type"] = "point_pair"
            entry["map"] = [
                [li, ri, tp, [w.axis, w.side]]
                for (li, ri), (tp, w) in sorted(emb.piece_map.items())
            ]
        if emb.flip_axes:
            entry["flip_axes"] = list(emb.flip_axes)
        doc["embeddings"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def load_family(path) -> StratifiedFamily:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InputError("the top-level JSON value is not an object")
        if doc.get("schema_version") != 1:
            raise InputError(
                f"unsupported schema_version {doc.get('schema_version')}"
            )
        poset = CriticalPoset(
            [
                CriticalPoint(entry["id"], entry.get("index"))
                for entry in doc["poset"]["points"]
            ],
            [tuple(edge) for edge in doc["poset"]["succ"]],
        )
        spaces = {}
        for key, spec in doc["spaces"].items():
            p, q = key.split("|")
            pieces = [
                BoxPiece(
                    lower=tuple(_num(x) for x in ps["lower"]),
                    upper=tuple(_num(x) for x in ps["upper"]),
                    walls=frozenset(Wall(a, s) for a, s in ps["walls"]),
                    periodic=frozenset(ps.get("periodic", [])),
                )
                for ps in spec["pieces"]
            ]
            spaces[(p, q)] = CorneredSpace(pieces, name=f"M({p},{q})")
        strata = {}
        for entry in doc["strata"]:
            chain = Chain(tuple(entry["chain"]))
            patches = tuple(
                PatchSpec(
                    ps["piece"],
                    tuple(
                        (pid, Wall(a, s)) for pid, (a, s) in sorted(ps["walls"].items())
                    ),
                )
                for ps in entry["patches"]
            )
            strata[chain] = ChainStratum(chain, patches)
        embeddings = {}
        for entry in doc["embeddings"]:
            p, r, q = entry["triple"]
            target = spaces[(p, q)]
            if entry["type"] == "slot":
                piece_map = {(0, 0): (0, Wall(entry["left_dim"], 0))}
            elif entry["type"] == "point_pair":
                piece_map = {
                    (li, ri): (tp, Wall(a, s)) for li, ri, tp, (a, s) in entry["map"]
                }
            else:
                raise InputError(f"unknown embedding type {entry['type']!r}")
            embeddings[(p, r, q)] = FaceEmbedding(
                target, piece_map, flip_axes=entry.get("flip_axes", ())
            )
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers invalid JSON, a space key without "|", a bad
        # coordinate string, and the InputErrors raised above
        raise InputError(f"malformed family file {path}: {exc}") from exc
    return StratifiedFamily(
        poset, spaces, strata, embeddings, name=doc.get("name", "")
    )
