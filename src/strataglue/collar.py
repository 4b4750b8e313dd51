"""Compatible collar/gluing maps for a stratified family.

For every chain ``I`` of a validated family this module builds a gluing
map ``G_I`` sending a stratum point plus a tuple of small nonnegative
collar coordinates to a nearby point of the ambient space, such that

* ``G_I(x, 0) = x`` exactly,
* the zero pattern of the coordinates determines the stratum of the
  output (stratum condition),
* nested chains are compatible (evaluating the deep chain equals
  evaluating in two stages through any subchain), and
* concatenation along a junction matches the product embedding.

Construction: each chain gets a preferred chart.  The initial chart is
the affine inward collar off the pinned walls of the chain's stratum
patches.  Charts of chains that are not dominated by a deeper chain are
then *normalized* junction by junction: whenever the identity

    chart(x1 * x2, (L1, 0, L2)) = embed(G(x1, L1), G(x2, L2))

fails on samples, the chart is post-composed with a correction map that
forces it on the corresponding zero slice, leaving earlier junctions
intact.  Evaluation of ``G_I`` always routes through the deepest chart
available at the point's patch and adds the collar coordinates to the
chart parameters, which makes the nesting compatibility automatic.

All residual checks report a max distance measured in the reference
chart of the relevant space.
"""

from __future__ import annotations

import weakref
from itertools import combinations, product

import numpy as np

from .errors import EpsilonUnderflowError, InputError, RangeError
from .family import StratifiedFamily, validate_family
from .numerics import _norms, fd_jacobian
from .params import GlueParam, zero_support_subchain
from .poset import Chain, concat_chains, is_subchain, pair_length
from .spaces import StratumPatch

#: collar parameters this close to zero are treated as exact zeros
SNAP_TOL = 1e-11
# samples per junction identity test while an atlas is built
_JUNCTION_SAMPLES = 24


# ---------------------------------------------------------------------
# preferred charts
# ---------------------------------------------------------------------


class AffineChart:
    """The affine inward collar of one chain's stratum.

    ``forward(piece, x, lam)`` moves the stratum point ``x`` off each
    pinned wall by the matching collar coordinate, along the inward
    axis.  Exact, and its own inverse is exact.  Like every chart it
    takes rows: coordinates and collar values on the last axis, row i of
    the result equal bit for bit to the one-point result for row i.
    """

    is_affine = True

    def __init__(self, family: StratifiedFamily, chain: Chain):
        self.family = family
        self.chain = chain
        self.patches = {
            p.piece: p for p in family.stratum(chain).patches
        }

    def _walls(self, piece: int):
        patch = self.patches.get(piece)
        if patch is None:
            raise InputError(
                f"chart of {self.chain} has no patch on piece {piece}"
            )
        return [patch.wall(r) for r in self.chain.interior]

    def forward(self, piece: int, x, lam) -> np.ndarray:
        out = np.array(x, dtype=float)
        lam = np.asarray(lam, dtype=float)
        for j, w in enumerate(self._walls(piece)):
            out[..., w.axis] += w.inward_sign * lam[..., j]
        return out

    def inverse(self, piece: int, coords):
        box = self.family.space(*self.chain.pair).pieces[piece]
        x = np.array(coords, dtype=float)
        lam = np.empty(x.shape[:-1] + (self.chain.length,))
        for j, w in enumerate(self._walls(piece)):
            lam[..., j] = box.wall_offset(x, w)
            x[..., w.axis] = box.wall_value(w)
        if (lam < -SNAP_TOL).any():
            raise InputError(f"point lies outside a wall of {self.chain}")
        return x, np.where(np.abs(lam) <= SNAP_TOL, 0.0, lam)


class CorrectedChart:
    """A chart post-composed with one junction correction.

    The correction forces the chart, on the zero slice of one collar
    slot, to agree with the two-sided gluing through the junction's
    product embedding; off the slice the same correction is applied,
    which keeps the map smooth and earlier junction identities intact.
    Every map it is built from is exactly invertible, and so is it.
    """

    is_affine = False

    def __init__(self, prev, junction: "_Junction"):
        self.prev = prev
        self.junction = junction
        self.slot = junction.slot
        self.chain = prev.chain
        self.patches = prev.patches

    def forward(self, piece: int, x, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        sliced = lam.copy()
        sliced[..., self.slot] = 0.0
        _, rhs_coords = self.junction.glue(piece, np.asarray(x, float), sliced)
        x2, lam2 = self.prev.inverse(piece, rhs_coords)
        lam2[..., self.slot] = lam[..., self.slot]
        return self.prev.forward(piece, x2, lam2)

    def inverse(self, piece: int, coords):
        # undo the last step of forward, then split the junction-face
        # point it started from
        x2, lam2 = self.prev.inverse(piece, np.asarray(coords, dtype=float))
        s = lam2[..., self.slot : self.slot + 1].copy()
        lam2[..., self.slot] = 0.0
        x, v_left, v_right = self.junction.split(
            piece, self.prev.forward(piece, x2, lam2)
        )
        return x, np.concatenate([v_left, s, v_right], axis=-1)


# ---------------------------------------------------------------------
# the atlas
# ---------------------------------------------------------------------


class CollarAtlas:
    """Built gluing maps: one preferred chart per chain, one epsilon per
    pair, plus the routing table used for evaluation."""

    def __init__(self, family: StratifiedFamily):
        self.family = family
        self.epsilon: dict[tuple[str, str], float] = {}
        self.charts: dict[Chain, AffineChart | CorrectedChart] = {}
        self._routes: dict[tuple[Chain, int], Chain] = {}

    def eps(self, chain: Chain) -> float:
        try:
            return self.epsilon[chain.pair]
        except KeyError:
            raise InputError(f"no collars built for pair {chain.pair}") from None

    def chart(self, chain: Chain):
        try:
            return self.charts[chain]
        except KeyError:
            raise InputError(f"no chart for {chain}") from None

    def route(self, chain: Chain, piece: int) -> Chain:
        """The deepest chain whose chart evaluates G on this patch."""
        key = (chain, piece)
        if key in self._routes:
            return self._routes[key]
        family = self.family
        own = family.patch_for(chain, piece)
        if own is None:
            raise InputError(f"{chain} has no patch on piece {piece}")
        best = chain
        for other in family.chains(*chain.pair):
            if other.length <= best.length or other not in self.charts:
                continue
            if not set(chain.points) <= set(other.points):
                continue
            patch = family.patch_for(other, piece)
            if patch is not None and own.walls <= patch.walls:
                best = other
        self._routes[key] = best
        return best

    def records(self) -> list[dict]:
        """Per-chain atlas summary used by reports."""
        out = []
        for chain in sorted(self.charts, key=lambda c: c.points):
            chart = self.charts[chain]
            out.append(
                {
                    "pair": list(chain.pair),
                    "chain": list(chain.points),
                    "epsilon": self.epsilon[chain.pair],
                    "affine": bool(chart.is_affine),
                    "patches": len(chart.patches),
                }
            )
        return out

    def is_affine_pair(self, pair) -> bool:
        return all(
            self.charts[c].is_affine
            for c in self.family.chains(*pair)
            if c.length >= 1
        )


# ---------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------


def _glue_rows(atlas, chain, piece, X, V):
    """Unchecked G_I on stratum points of one piece, coordinates on the
    last axis of ``X`` and collar values on the last axis of ``V``.

    Rows whose values are all zero come back exactly; the others go
    through the route chart: invert, add the values to the chain's
    slots, evaluate.  The only evaluation path of the gluing maps.
    """
    out = np.array(X, dtype=float)
    V = np.asarray(V, dtype=float)
    # count_nonzero: the cheapest test, for the many calls with no values
    if not np.count_nonzero(V):
        return out
    hit = V.any(axis=-1)
    # most calls have values on every row: a view spares three row copies
    rows = Ellipsis if hit.all() else hit
    route = atlas.route(chain, piece)
    chart = atlas.chart(route)
    slots = [route.interior.index(r) for r in chain.interior]
    x, lam = chart.inverse(piece, out[rows])
    lam[..., slots] += V[rows]
    out[rows] = chart.forward(piece, x, lam)
    return out


def _unglue(atlas: CollarAtlas, chain: Chain, point):
    """Inverse of G_I on its image: (stratum point, collar values).

    Inverts through the route chart that ``_glue_rows`` evaluates with;
    rows whose values are all zero come back exactly.
    """
    piece, coords = point
    out = np.array(coords, dtype=float)
    if not chain.length:
        return (piece, out), np.zeros(out.shape[:-1] + (0,))
    route = atlas.route(chain, piece)
    chart = atlas.chart(route)
    slots = [route.interior.index(r) for r in chain.interior]
    x, lam = chart.inverse(piece, out)
    values = lam[..., slots]
    if np.count_nonzero(values):
        hit = values.any(axis=-1)
        lam[..., slots] = 0.0
        out[hit] = chart.forward(piece, x[hit], lam[hit])
    return (piece, out), values


def glue(atlas: CollarAtlas, chain: Chain, point, values):
    """Evaluate G_I at a stratum point with collar coordinates.

    ``values`` has one entry per interior point of the chain, each in
    [0, eps) for the pair's eps.  The output's stratum is the chain kept
    by the zero pattern; all-zero values return the point exactly.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (chain.length,):
        raise InputError(
            f"{values.shape} collar values for a chain of length {chain.length}"
        )
    eps = atlas.eps(chain)
    if np.any(values < 0) or np.any(values >= eps):
        raise RangeError(
            f"collar values must lie in [0, {eps:g}), got {values}"
        )
    got = atlas.family.classify(chain.pair, point)
    if got != chain:
        raise InputError(f"point lies in stratum {got}, not {chain}")
    return point[0], _glue_rows(atlas, chain, point[0], point[1], values)


def glue_pair(atlas: CollarAtlas, triple, left, right, lam: float):
    """Glue two moduli points along a single junction: left #_lam right.

    ``triple`` is (p, r, q); lam = 0 returns the embedded product pair.
    """
    p, r, q = triple
    chain = Chain((p, r, q))
    emb = atlas.family.embedding(p, r, q)
    x = emb.forward(left, right)
    return glue(atlas, chain, x, [lam])


def _glue_map(atlas: CollarAtlas, chain: Chain, point):
    """G_I near a point, or near each row of a block on one piece, as a
    map of z = (free coordinates, collar values) on the last axis.

    Returns (f, free): f(z) is the glued box point, and ``free`` lists
    the box axes of the stratum that the first entries of z move.
    """
    piece, coords = point
    patch = atlas.family.patch_for(chain, piece)
    pinned = {patch.wall(r).axis for r in chain.interior}
    free = [a for a in range(np.shape(coords)[-1]) if a not in pinned]

    def f(z):
        x = np.array(coords, dtype=float)
        x[..., free] = z[..., : len(free)]
        return _glue_rows(atlas, chain, piece, x, z[..., len(free) :])

    return f, free


def glue_differential(atlas: CollarAtlas, chain: Chain, point, values):
    """Differential of G_I at (x, values) in box coordinates, or at each
    row of a block on one piece, the (d, columns) matrices stacked.

    Columns: first the free (stratum-tangent) coordinates of x, then the
    collar slots.  Exact for affine routes, high-order finite differences
    otherwise.
    """
    piece, coords = point
    coords = np.asarray(coords, float)
    affine = atlas.chart(atlas.route(chain, piece)).is_affine
    f, free = _glue_map(atlas, chain, point)
    z0 = np.concatenate([coords[..., free], values], axis=-1)
    if not affine:
        return fd_jacobian(f, z0, 1e-4, order=4)
    patch = atlas.family.patch_for(chain, piece)
    jac = np.zeros(coords.shape + z0.shape[-1:])
    jac[..., free, np.arange(len(free))] = 1.0
    for j, r in enumerate(chain.interior):
        w = patch.wall(r)
        jac[..., w.axis, len(free) + j] = w.inward_sign
    return jac


def _per_block(blocks, draw) -> list:
    """One ``draw(n)`` for the n rows of all blocks, cut into runs."""
    sizes = [len(X) for _, X in blocks]
    return np.split(draw(sum(sizes)), np.cumsum(sizes)[:-1])


# ---------------------------------------------------------------------
# junction normalization
# ---------------------------------------------------------------------


class _Junction:
    """The two-sided gluing through the junction at one interior slot:
    split by the junction's product embedding, glue each side along its
    sub-chain, embed again."""

    def __init__(self, atlas: CollarAtlas, chain: Chain, slot: int):
        # weak: the atlas holds the chart that holds this junction, and a
        # strong reference back makes the atlas a cycle for the collector
        self.atlas = weakref.proxy(atlas)
        self.slot = slot
        self.emb = atlas.family.embedding(
            chain.head, chain.points[slot + 1], chain.tail
        )
        self.left = Chain(chain.points[: slot + 2])
        self.right = Chain(chain.points[slot + 1 :])

    def glue(self, piece, x, lam):
        (lp, lx), (rp, rx) = self.emb.inverse((piece, x))
        lx = _glue_rows(self.atlas, self.left, lp, lx, lam[..., : self.slot])
        rx = _glue_rows(self.atlas, self.right, rp, rx, lam[..., self.slot + 1 :])
        return self.emb.forward((lp, lx), (rp, rx))

    def split(self, piece, w):
        """Inverse of ``glue`` on its image: (x, left values, right values)."""
        left, right = self.emb.inverse((piece, w))
        left, v_left = _unglue(self.atlas, self.left, left)
        right, v_right = _unglue(self.atlas, self.right, right)
        return self.emb.forward(left, right)[1], v_left, v_right


def _junction_residual(atlas, chart, junction, eps, rng) -> float:
    family = atlas.family
    chain = chart.chain
    space = family.space(*chain.pair)
    worst = 0.0
    blocks = family.sample_blocks(chain, _JUNCTION_SAMPLES, rng)
    runs = _per_block(blocks, lambda n: rng.uniform(0.0, eps, size=(n, chain.length)))
    for (piece, X), L in zip(blocks, runs):
        L[:, junction.slot] = 0.0
        lhs = chart.forward(piece, X, L)
        worst = max(worst, float(space.distance((piece, lhs), junction.glue(piece, X, L)).max()))
    return worst


def normalize_junctions(
    atlas: CollarAtlas,
    chart,
    eps: float,
    rng=None,
    tol: float = 1e-9,
    epsilon_floor: float = 1e-6,
):
    """Correct a chart until every junction identity holds on
    ``_JUNCTION_SAMPLES`` samples.

    Junctions are processed in chain order; a correction at one junction
    leaves the earlier identities intact.  Returns (chart, eps); eps is
    halved when a corrected junction still misses the tolerance, and an
    underflow below the floor aborts the build.
    """
    rng = np.random.default_rng(rng)
    for slot in range(chart.chain.length):
        junction = _Junction(atlas, chart.chain, slot)
        corrected = False
        while True:
            res = _junction_residual(atlas, chart, junction, eps, rng)
            if res <= tol:
                break
            if not corrected:
                chart = CorrectedChart(chart, junction)
                corrected = True
                continue
            eps /= 2
            if eps < epsilon_floor:
                raise EpsilonUnderflowError(
                    f"collar width underflow normalizing {chart.chain} "
                    f"(junction {slot}, residual {res:.3e})",
                    epsilon=eps,
                )
    return chart, eps


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------


def build_collars(
    family: StratifiedFamily,
    tol: float = 1e-9,
    epsilon_floor: float = 1e-6,
    rng=None,
    validate: bool = True,
) -> CollarAtlas:
    """Build the full atlas of gluing maps for a validated family.

    Pairs are processed by increasing maximal chain length, so every
    junction normalization only consumes collars of strictly shorter
    pairs.  Each pair ends with a single eps, bounded by half its
    shortest box side and by the eps of every sub-pair.
    """
    rng = np.random.default_rng(rng)
    if validate:
        report = validate_family(family, samples=32, rng=rng, tol=tol)
        if not report.passed:
            fail = report.first_failure()
            raise InputError(
                f"family validation failed: {fail.name} {fail.subject} "
                f"{fail.witness}"
            )
    atlas = CollarAtlas(family)
    pairs = sorted(
        family.pairs(), key=lambda pq: (pair_length(family.poset, *pq), pq)
    )
    for p, q in pairs:
        space = family.space(p, q)
        eps = 0.5
        for piece in space.pieces:
            if piece.dim:
                eps = min(
                    eps,
                    min(hi - lo for lo, hi in zip(piece.lower, piece.upper)) / 2,
                )
        for r in sorted(family.poset.below(p)):
            if family.poset.precedes(r, q):
                eps = min(eps, atlas.epsilon[(p, r)], atlas.epsilon[(r, q)])
        chains = sorted(
            family.chains(p, q), key=lambda c: (-c.length, c.points)
        )
        for chain in chains:
            if chain.length >= 1:
                atlas.charts[chain] = AffineChart(family, chain)
        for chain in chains:
            if chain.length >= 1:
                chart, eps = normalize_junctions(
                    atlas,
                    atlas.charts[chain],
                    eps,
                    rng=rng,
                    tol=tol,
                    epsilon_floor=epsilon_floor,
                )
                atlas.charts[chain] = chart
        if eps < epsilon_floor:
            raise EpsilonUnderflowError(
                f"collar width underflow for pair ({p},{q})", epsilon=eps
            )
        atlas.epsilon[(p, q)] = eps
    return atlas


# ---------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------


def check_compat_one_pair(
    atlas: CollarAtlas, outer: Chain, inner: Chain, samples: int = 1024, rng=None
) -> float:
    """Max residual of two-stage versus direct gluing for inner <= outer.

    Direct: G_outer(x, L).  Two-stage: zero the inner slots, glue, then
    glue the inner chain with the remaining coordinates.  Sampled with
    strictly positive coordinates outside the inner chain.
    """
    rng = np.random.default_rng(rng)
    family = atlas.family
    if not is_subchain(inner, outer):
        raise InputError(f"{inner} is not a subchain of {outer}")
    if outer.length == 0:
        return 0.0
    eps = atlas.eps(outer)
    space = family.space(*outer.pair)
    inner_idx = [outer.interior.index(r) for r in inner.interior]
    outer_idx = [
        j for j in range(outer.length) if j not in set(inner_idx)
    ]
    worst = 0.0
    patches = family.stratum(outer).patches
    per = max(2, -(-samples // max(1, len(patches))))
    for piece, X in family.sample_blocks(outer, per * len(patches), rng):
        V = rng.uniform(0.0, eps, size=(per, outer.length))
        if outer_idx:
            V[:, outer_idx] = rng.uniform(
                0.05 * eps, 0.95 * eps, size=(per, len(outer_idx))
            )
        lhs = _glue_rows(atlas, outer, piece, X, V)
        masked = V.copy()
        masked[:, inner_idx] = 0.0
        mid = _glue_rows(atlas, outer, piece, X, masked)
        rhs = _glue_rows(atlas, inner, piece, mid, V[:, inner_idx])
        worst = max(worst, float(space.distance((piece, lhs), (piece, rhs)).max()))
    return worst


def check_compat_concat(
    atlas: CollarAtlas, first: Chain, second: Chain, samples: int = 1024, rng=None
) -> float:
    """Max residual of glued concatenation versus the embedded product.

    Left side: G on the concatenated chain at the embedded product point
    with the junction coordinate zero.  Right side: glue each factor
    separately, then embed.
    """
    rng = np.random.default_rng(rng)
    family = atlas.family
    joined = concat_chains(first, second)
    emb = family.embedding(first.head, first.tail, second.tail)
    eps = atlas.eps(joined)
    space = family.space(*joined.pair)
    worst = 0.0
    pa = family.stratum(first).patches
    pb = family.stratum(second).patches
    per = max(2, -(-samples // max(1, len(pa) * len(pb))))
    for (piece_a, X1), (piece_b, X2) in product(
        family.sample_blocks(first, per * len(pa), rng),
        family.sample_blocks(second, per * len(pb), rng),
    ):
        V1 = rng.uniform(0.0, eps, size=(per, first.length))
        V2 = rng.uniform(0.0, eps, size=(per, second.length))
        piece_t, T = emb.forward((piece_a, X1), (piece_b, X2))
        G1 = _glue_rows(atlas, first, piece_a, X1, V1)
        G2 = _glue_rows(atlas, second, piece_b, X2, V2)
        VJ = np.concatenate([V1, np.zeros((per, 1)), V2], axis=1)
        lhs = _glue_rows(atlas, joined, piece_t, T, VJ)
        d = space.distance((piece_t, lhs), emb.forward((piece_a, G1), (piece_b, G2)))
        worst = max(worst, float(d.max()))
    return worst


def check_associativity(
    atlas: CollarAtlas, quad, samples: int = 100, grid: int = 32, rng=None
) -> float:
    """Max residual of the two bracketings of a double gluing.

    For points g1, g2, g3 of the three open moduli of a length-3 chain
    ``quad`` = p0 > p1 > p2 > p3 and a grid of (lam1, lam2), compares
    (g1 # g2) # g3 with g1 # (g2 # g3), and both against the double
    collar of the full chain.
    """
    rng = np.random.default_rng(rng)
    family = atlas.family
    p0, p1, p2, p3 = quad
    c012 = Chain((p0, p1, p2))
    c123 = Chain((p1, p2, p3))
    c023 = Chain((p0, p2, p3))
    c013 = Chain((p0, p1, p3))
    full = Chain((p0, p1, p2, p3))
    e012 = family.embedding(p0, p1, p2)
    e123 = family.embedding(p1, p2, p3)
    e023 = family.embedding(p0, p2, p3)
    e013 = family.embedding(p0, p1, p3)
    eps = min(
        atlas.eps(c012), atlas.eps(c123), atlas.eps(full)
    )
    space = family.space(p0, p3)
    # ``samples`` points on every patch of each factor, and every
    # sample's grid of (lam1, lam2) in one block: sample-major rows
    factors = [
        family.sample_blocks(c, samples * len(family.stratum(c).patches), rng)
        for c in (Chain((p0, p1)), Chain((p1, p2)), Chain((p2, p3)))
    ]
    lam = (np.arange(grid) + 0.5) / grid * eps
    L1, L2 = np.meshgrid(lam, lam, indexing="ij")
    l1 = np.tile(L1.ravel(), samples)[:, None]
    l2 = np.tile(L2.ravel(), samples)[:, None]
    worst = 0.0
    for (q1, g1), (q2, g2), (q3, g3) in product(*factors):
        G1, G2, G3 = (np.repeat(g, grid * grid, axis=0) for g in (g1, g2, g3))
        piece12, X12 = e012.forward((q1, G1), (q2, G2))
        A = _glue_rows(atlas, c012, piece12, X12, l1)
        piece_a, XA = e023.forward((piece12, A), (q3, G3))
        lhs = (piece_a, _glue_rows(atlas, c023, piece_a, XA, l2))
        piece23, X23 = e123.forward((q2, G2), (q3, G3))
        B = _glue_rows(atlas, c123, piece23, X23, l2)
        piece_b, XB = e013.forward((q1, G1), (piece23, B))
        rhs = (piece_b, _glue_rows(atlas, c013, piece_b, XB, l1))
        piece_f, XF = e023.forward((piece12, X12), (q3, G3))
        both = (piece_f, _glue_rows(atlas, full, piece_f, XF, np.concatenate([l1, l2], axis=1)))
        worst = max(
            worst,
            float(space.distance(lhs, rhs).max()),
            float(space.distance(lhs, both).max()),
            float(space.distance(rhs, both).max()),
        )
    return worst


def check_stratum_condition(
    atlas: CollarAtlas, samples: int = 10000, rng=None
) -> tuple[int, int]:
    """Count stratum-condition failures over random zero patterns.

    Returns (failures, total).  A failure is a glued point whose depth
    or assigned chain differs from the chain kept by the zero pattern.
    """
    rng = np.random.default_rng(rng)
    family = atlas.family
    chains = [c for c in atlas.charts if c.length >= 1]
    if not chains:
        return 0, 0
    per = max(1, samples // len(chains))
    failures = total = 0
    for chain in chains:
        eps = atlas.eps(chain)
        space = family.space(*chain.pair)
        blocks = family.sample_blocks(chain, per, rng)
        zeros = _per_block(blocks, lambda n: rng.random((n, chain.length)) < 0.5)
        runs = _per_block(
            blocks, lambda n: rng.uniform(0.05 * eps, 0.95 * eps, size=(n, chain.length))
        )
        for (piece, X), Z, V in zip(blocks, zeros, runs):
            V[Z] = 0.0
            out = (piece, _glue_rows(atlas, chain, piece, X, V))
            for got, depth, v in zip(
                family.classify(chain.pair, out), space.depth(out), V
            ):
                expect = zero_support_subchain(GlueParam(chain, tuple(map(float, v))))
                failures += got != expect or depth != expect.length
            total += len(X)
    return failures, total


def check_injectivity(
    atlas: CollarAtlas, chain: Chain, samples: int = 10000, rng=None
) -> float:
    """Collision scan: the smallest gap between lexicographically
    adjacent glued rows, over random inputs on each stratum patch.

    This is an upper bound on the minimum output separation, not that
    minimum: the closest pair need not be adjacent in lexicographic
    order.  It is 0 exactly when two outputs collide, since equal rows
    are always adjacent after sorting.
    """
    rng = np.random.default_rng(rng)
    family = atlas.family
    eps = atlas.eps(chain)
    patches = family.stratum(chain).patches
    per = max(2, samples // max(1, len(patches)))
    best = np.inf
    for piece, X in family.sample_blocks(chain, per * len(patches), rng):
        V = rng.uniform(0.0, eps, size=(per, chain.length))
        out = _glue_rows(atlas, chain, piece, X, V)
        if out.shape[1] == 0 or len(out) < 2:
            continue
        order = np.lexsort(out.T[::-1])
        srt = out[order]
        gaps = np.linalg.norm(np.diff(srt, axis=0), axis=1)
        best = min(best, float(gaps.min()))
    return best


def check_differential(
    atlas: CollarAtlas, chain: Chain, samples: int = 16, rng=None
) -> float:
    """Max relative error of the differential against central differences."""
    rng = np.random.default_rng(rng)
    family = atlas.family
    eps = atlas.eps(chain)
    worst = 0.0
    blocks = family.sample_blocks(chain, samples, rng)
    runs = _per_block(
        blocks, lambda n: rng.uniform(0.1 * eps, 0.9 * eps, size=(n, chain.length))
    )
    for (piece, X), V in zip(blocks, runs):
        jac = glue_differential(atlas, chain, (piece, X), V)
        f, free = _glue_map(atlas, chain, (piece, X))
        fd = fd_jacobian(f, np.concatenate([X[:, free], V], axis=1), 1e-6)
        # columns on the last axis, as rows for _norms
        scale = np.maximum(1.0, _norms(np.swapaxes(fd, 1, 2)))
        err = _norms(np.swapaxes(jac - fd, 1, 2)) / scale
        worst = max(worst, float(err.max()))
    return worst


# ---------------------------------------------------------------------
# collars of a single compact space with faces
# ---------------------------------------------------------------------


class SingleSpaceCollars:
    """Face collars of one compact polytopal space, rescaled to eps = 1.

    For every set of faces with nonempty intersection, ``glue`` moves a
    point of the open intersection off each face by its coordinate in
    [0, 1), scaled by the box side, so the empty set gives the inclusion
    and nested subsets compose exactly.  The faces are the space's
    ``connected_faces``; a space that is not a manifold with faces
    raises ``InputError``.
    """

    def __init__(self, space):
        ok, witness = space.check_manifold_with_faces()
        if not ok:
            raise InputError(
                f"space is not a manifold with faces at patch {witness}"
            )
        self.space = space
        self.faces = space.connected_faces()
        self._wall_face = {
            comp: i for i, face in enumerate(self.faces) for comp in face.components
        }

    def face_subsets(self) -> list[tuple[int, ...]]:
        """All index sets of faces with nonempty intersection, incl. ()."""
        out = [()]
        for k in range(1, len(self.faces) + 1):
            for combo in combinations(range(len(self.faces)), k):
                hits = self.space.face_intersection(
                    [self.faces[i] for i in combo]
                )
                if hits:
                    out.append(combo)
        return out

    def glue(self, subset, point, values):
        """Collar a point of the open intersection of the given faces, or
        each row of an (n, d) block on one stratum patch by its row of
        values.  A row that pins other faces raises for the first such row.
        """
        subset = tuple(subset)
        values = np.asarray(values, dtype=float)
        coords = np.asarray(point[1], dtype=float)
        if values.shape != coords.shape[:-1] + (len(subset),):
            raise InputError(
                f"{values.shape} collar values for {len(subset)} faces"
            )
        if np.any(values < 0) or np.any(values >= 1.0):
            raise RangeError(f"collar values must lie in [0, 1), got {values}")
        piece, coords = self.space.piece_of((point[0], coords))
        box = self.space.pieces[piece]
        out = np.array(coords)
        # distinct wall sets in row order, so the first to fail is the first row's
        wall_sets = dict.fromkeys(box.walls_at(np.atleast_2d(out)))
        for walls in wall_sets:
            pinned = {self._wall_face[(piece, w)]: w for w in walls}
            if set(pinned) != set(subset):
                raise InputError(
                    f"point pins faces {sorted(pinned)}, expected {sorted(subset)}"
                )
        if len(wall_sets) != 1:
            raise InputError("the rows of a block must lie on one stratum patch")
        for i, v in zip(subset, np.moveaxis(values, -1, 0)):
            w = pinned[i]
            side = box.upper[w.axis] - box.lower[w.axis]
            out[..., w.axis] += w.inward_sign * v * side
        return piece, out

    def sample_intersection(self, subset, count, rng):
        """Random points of the open intersection of the given faces, as
        (piece, rows) blocks drawn by ``CorneredSpace.sample_patches``."""
        rng = np.random.default_rng(rng)
        patches = self.space.face_intersection([self.faces[i] for i in subset])
        if not patches and subset:
            raise InputError(f"faces {subset} have empty intersection")
        pool = patches if subset else [StratumPatch(0, frozenset())]
        return self.space.sample_patches(pool, count, rng)


def single_space_collars(space) -> SingleSpaceCollars:
    """The face collar system of one compact space with faces: one face
    per label of its ``face_labels``, collar domains rescaled to [0, 1)."""
    return SingleSpaceCollars(space)


def check_single_space_compat(
    collars: SingleSpaceCollars, samples: int = 10000, rng=None
) -> float:
    """Max residual of nested-face compatibility over all subset pairs.

    For every face set I and every J inside I: collar I directly versus
    collaring off I - J first (J coordinates zeroed) and then off J.
    """
    rng = np.random.default_rng(rng)
    subsets = [s for s in collars.face_subsets() if s]
    budget = max(1, samples // max(1, sum(2 ** len(s) for s in subsets)))
    worst = 0.0
    for I in subsets:
        for k in range(len(I) + 1):
            for J in combinations(I, k):
                blocks = collars.sample_intersection(I, budget, rng)
                runs = _per_block(blocks, lambda n: rng.uniform(0.0, 0.999, (n, len(I))))
                jpos = [I.index(j) for j in J]
                for point, V in zip(blocks, runs):
                    _, lhs = collars.glue(I, point, V)
                    masked = V.copy()
                    masked[:, jpos] = 0.0
                    mid = collars.glue(I, point, masked)
                    _, rhs = collars.glue(J, mid, V[:, jpos])
                    worst = max(worst, float(_norms(lhs - rhs).max()))
    return worst
