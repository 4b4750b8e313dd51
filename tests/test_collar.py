"""Collar atlases: construction, gluing identities, error paths."""

import gc
import weakref
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from strataglue import (
    Chain,
    EpsilonUnderflowError,
    InputError,
    RangeError,
    box_space,
    build_collars,
    check_associativity,
    check_compat_concat,
    check_compat_one_pair,
    check_stratum_condition,
    concat_chains,
    cube_family,
    glue,
    glue_differential,
    glue_pair,
    load_family,
    shear_diffeo,
    single_space_collars,
    stretch_diffeo,
    with_target_diffeo,
)
from strataglue.collar import (
    SNAP_TOL,
    AffineChart,
    SingleSpaceCollars,
    _glue_map,
    _glue_rows,
    _junction_residual,
    _Junction,
    _unglue,
    check_differential,
    check_injectivity,
    check_single_space_compat,
)
from strataglue.numerics import _norms, fd_jacobian
from strataglue.params import GlueParam, zero_support_subchain
from strataglue.spaces import CorneredSpace, StratumPatch, Wall

FULL = Chain(("p0", "p1", "p2", "p3"))


def _points(blocks):
    """(piece, rows) blocks flattened to (piece, coords) points in row order."""
    return [(piece, x) for piece, X in blocks for x in X]


def _patch_rows(family, chain, patch, count, rng):
    """``count`` random rows of one stratum patch."""
    return family.space(*chain.pair).pieces[patch.piece].sample(count, rng, patch.walls)


# -- construction ------------------------------------------------------


def test_atlas_records(cube3_atlas):
    records = cube3_atlas.records()
    # one record per chain with at least one interior point
    assert len(records) == 5
    for rec in records:
        assert rec["epsilon"] >= 1e-3
        assert rec["affine"]


def test_affine_family_stays_affine(cube3_atlas):
    assert all(
        cube3_atlas.is_affine_pair(pq) for pq in cube3_atlas.family.pairs()
    )


def test_epsilon_floor_aborts_build():
    with pytest.raises(EpsilonUnderflowError):
        build_collars(cube_family(2), epsilon_floor=1.0)


def test_build_validates_family_first(rng):
    from strataglue import with_flipped_embedding

    broken = with_flipped_embedding(cube_family(3), ("p0", "p2", "p3"))
    with pytest.raises(InputError):
        build_collars(broken, rng=rng)


# -- pointwise gluing --------------------------------------------------


def test_zero_values_return_point_exactly(cube3_atlas, rng):
    (point,) = _points(cube3_atlas.family.sample_blocks(FULL, 1, rng))
    piece, out = glue(cube3_atlas, FULL, point, np.zeros(2))
    assert piece == point[0]
    assert np.array_equal(out, np.asarray(point[1], dtype=float))


def test_glue_moves_off_each_wall(cube3_atlas, rng):
    (point,) = _points(cube3_atlas.family.sample_blocks(FULL, 1, rng))
    eps = cube3_atlas.eps(FULL)
    piece, out = glue(cube3_atlas, FULL, point, [0.3 * eps, 0.7 * eps])
    space = cube3_atlas.family.space("p0", "p3")
    assert space.depth((piece, out)) == 0


def test_glue_range_checks(cube3_atlas, rng):
    (point,) = _points(cube3_atlas.family.sample_blocks(FULL, 1, rng))
    eps = cube3_atlas.eps(FULL)
    with pytest.raises(RangeError):
        glue(cube3_atlas, FULL, point, [eps, 0.0])
    with pytest.raises(RangeError):
        glue(cube3_atlas, FULL, point, [-0.1, 0.0])
    with pytest.raises(InputError):
        glue(cube3_atlas, FULL, point, [0.0])


def test_glue_rejects_wrong_stratum(cube3_atlas, rng):
    (point,) = _points(cube3_atlas.family.sample_blocks(Chain(("p0", "p1", "p3")), 1, rng))
    with pytest.raises(InputError):
        glue(cube3_atlas, FULL, point, np.zeros(2))


def test_glue_pair_at_zero_is_embedding(cube3_atlas):
    emb = cube3_atlas.family.embedding("p0", "p2", "p3")
    left, right = (0, np.array([0.4])), (0, np.array([]))
    expect = emb.forward(left, right)
    got = glue_pair(cube3_atlas, ("p0", "p2", "p3"), left, right, 0.0)
    assert got[0] == expect[0]
    assert np.allclose(got[1], expect[1])


# -- identities --------------------------------------------------------


def test_nested_compatibility(cube3_atlas, rng):
    for inner in (Chain(("p0", "p3")), Chain(("p0", "p1", "p3")),
                  Chain(("p0", "p2", "p3")), FULL):
        res = check_compat_one_pair(
            cube3_atlas, FULL, inner, samples=256, rng=rng
        )
        assert res < 1e-9


def test_concatenation_compatibility(cube3_atlas, rng):
    res = check_compat_concat(
        cube3_atlas, Chain(("p0", "p1", "p2")), Chain(("p2", "p3")),
        samples=256, rng=rng,
    )
    assert res < 1e-9


def test_associativity(cube3_atlas, rng):
    res = check_associativity(
        cube3_atlas, FULL.points, samples=5, grid=8, rng=rng
    )
    assert res < 1e-9


def test_stratum_condition(cube3_atlas, rng):
    failures, total = check_stratum_condition(
        cube3_atlas, samples=500, rng=rng
    )
    assert total >= 500
    assert failures == 0


def test_injectivity(cube3_atlas, rng):
    sep = check_injectivity(cube3_atlas, FULL, samples=2000, rng=rng)
    assert sep > 0


def test_differential_matches_finite_differences(cube3_atlas, rng):
    res = check_differential(cube3_atlas, FULL, samples=4, rng=rng)
    assert res < 1e-5
    (point,) = _points(cube3_atlas.family.sample_blocks(FULL, 1, rng))
    jac = glue_differential(cube3_atlas, FULL, point, np.array([0.1, 0.1]))
    assert jac.shape == (2, 2)
    # affine route: the differential is a signed permutation
    assert np.allclose(np.abs(np.linalg.det(jac)), 1.0)


def test_fd_jacobian_matches_polynomial_map():
    def f(z):
        x, y, t = z
        return np.array([x**3 * y, x * y * t**2, y**2 - t])

    z = np.array([0.7, -0.4, 1.3])
    x, y, t = z
    exact = np.array([
        [3 * x**2 * y, x**3, 0.0],
        [y * t**2, x * t**2, 2 * x * y * t],
        [0.0, 2 * y, -1.0],
    ])
    assert np.allclose(fd_jacobian(f, z, 1e-6), exact, rtol=0, atol=1e-8)
    # f is at most cubic along each axis, so the five-point stencil is
    # exact up to rounding even at a step where order 2 is off by ~4e-7
    assert np.allclose(fd_jacobian(f, z, 1e-3, order=4), exact, rtol=0, atol=1e-10)
    directions = np.array([[1.0, 0.6], [0.0, -0.8], [0.5, 0.0]])
    assert np.allclose(
        fd_jacobian(f, z, 1e-6, directions=directions),
        exact @ directions, rtol=0, atol=1e-8,
    )
    # a scalar map gives its gradient
    assert np.allclose(fd_jacobian(lambda w: w @ w, z, 1e-6), 2 * z, rtol=0, atol=1e-8)


def test_fd_jacobian_rows_match_per_row(rng):
    def f(z):
        x, y, t = z[..., 0], z[..., 1], z[..., 2]
        return np.stack([x**3 * y, np.sin(x * y) * t**2, y**2 - np.exp(t)], axis=-1)

    Z = rng.uniform(-1.0, 1.0, size=(5, 3))
    directions = np.array([[1.0, 0.6], [0.0, -0.8], [0.5, 0.0]])
    for kwargs in ({"order": 2}, {"order": 4}, {"directions": directions}):
        stacked = fd_jacobian(f, Z, 1e-4, **kwargs)
        single = np.stack([fd_jacobian(f, z, 1e-4, **kwargs) for z in Z])
        assert stacked.tobytes() == single.tobytes()


# -- non-affine charts -------------------------------------------------


@pytest.fixture(scope="module")
def stretched_atlas():
    family = with_target_diffeo(
        cube_family(3), ("p0", "p3"), stretch_diffeo(2)
    )
    return build_collars(family, rng=np.random.default_rng(2))


def test_stretched_family_needs_corrected_charts(stretched_atlas):
    assert not stretched_atlas.is_affine_pair(("p0", "p3"))


def test_corrected_atlas_is_freed_without_the_cycle_collector():
    family = with_target_diffeo(cube_family(3), ("p0", "p3"), stretch_diffeo(2))
    gc.disable()
    try:
        atlas = build_collars(family, rng=np.random.default_rng(2))
        assert not atlas.is_affine_pair(("p0", "p3"))
        ref = weakref.ref(atlas)
        del atlas
        assert ref() is None
    finally:
        gc.enable()


def test_glue_rows_match_per_row_glue(stretched_atlas, rng):
    family = stretched_atlas.family
    # corrected routes through the full chain, and one affine pair
    chains = [FULL, Chain(("p0", "p2", "p3")), Chain(("p0", "p1", "p2"))]
    for chain in chains:
        patch = family.stratum(chain).patches[0]
        X = _patch_rows(family, chain, patch, 5, rng)
        V = rng.uniform(0.0, stretched_atlas.eps(chain), size=(5, chain.length))
        V[0] = 0.0
        V[1, -1] = 0.0
        rows = _glue_rows(stretched_atlas, chain, patch.piece, X, V)
        single = [glue(stretched_atlas, chain, (patch.piece, x), v) for x, v in zip(X, V)]
        assert rows.tobytes() == np.stack([c for _, c in single]).tobytes()
        # the all-zero row comes back exactly
        assert rows[0].tobytes() == X[0].tobytes()


def test_stacked_charts_match_per_row(stretched_atlas, rng):
    family = stretched_atlas.family
    # every corrected chart, the ones nested inside others included,
    # and one affine chart
    charts = [stretched_atlas.chart(Chain(("p0", "p1", "p3")))]
    for chart in stretched_atlas.charts.values():
        while not chart.is_affine:
            charts.append(chart)
            chart = chart.prev
    assert len(charts) > 2
    for chart in charts:
        eps = stretched_atlas.eps(chart.chain)
        for patch in family.stratum(chart.chain).patches:
            X = _patch_rows(family, chart.chain, patch, 4, rng)
            lam = rng.uniform(0.05 * eps, 0.95 * eps, size=(4, chart.chain.length))
            # all slots zero, the corrected slot zero, all slots positive
            lam[0] = 0.0
            lam[1, getattr(chart, "slot", 0)] = 0.0
            Y = chart.forward(patch.piece, X, lam)
            single = [chart.forward(patch.piece, x, v) for x, v in zip(X, lam)]
            assert Y.tobytes() == np.stack(single).tobytes()
            x2, lam2 = chart.inverse(patch.piece, Y)
            single = [chart.inverse(patch.piece, y) for y in Y]
            assert x2.tobytes() == np.stack([x for x, _ in single]).tobytes()
            assert lam2.tobytes() == np.stack([v for _, v in single]).tobytes()


def test_unglue_inverts_glue(stretched_atlas, rng):
    family = stretched_atlas.family
    for chain in [FULL, Chain(("p0", "p2", "p3")), Chain(("p0", "p1", "p2"))]:
        patch = family.stratum(chain).patches[0]
        X = _patch_rows(family, chain, patch, 4, rng)
        V = rng.uniform(0.0, stretched_atlas.eps(chain), size=(4, chain.length))
        V[0] = 0.0
        V[1, 0] = 0.0
        for x, v in zip(X, V):
            glued = glue(stretched_atlas, chain, (patch.piece, x), v)
            (piece, x2), v2 = _unglue(stretched_atlas, chain, glued)
            assert piece == patch.piece
            assert np.max(np.abs(x2 - x)) < 1e-12
            assert np.max(np.abs(v2 - v)) < 1e-12
        # a stratum point unglues to itself, exactly
        (_, x0), v0 = _unglue(stretched_atlas, chain, (patch.piece, X[0]))
        assert x0.tobytes() == X[0].tobytes()
        assert not np.count_nonzero(v0)


def _newton_inverse(family, chart, piece, coords):
    """Reference inverse of a corrected chart: an undamped Newton solve
    of chart.forward(x, lam) = coords over the free axes of x and lam,
    starting from the affine chart's inverse, which pins the walls."""
    patch = chart.patches[piece]
    pinned = {patch.wall(r).axis for r in chart.chain.interior}
    free = [a for a in range(len(coords)) if a not in pinned]
    x0, lam0 = AffineChart(family, chart.chain).inverse(piece, coords)

    def unpack(z):
        x = x0.copy()
        x[free] = z[: len(free)]
        return x, np.maximum(z[len(free) :], 0.0)

    def resid(z):
        return chart.forward(piece, *unpack(z)) - coords

    z = np.concatenate([x0[free], lam0])
    for _ in range(60):
        r = resid(z)
        if np.max(np.abs(r)) < 1e-12:
            break
        z = z - np.linalg.lstsq(fd_jacobian(resid, z, 1e-7), r, rcond=None)[0]
    else:
        raise AssertionError("reference Newton solve did not converge")
    x, lam = unpack(z)
    lam[np.abs(lam) <= SNAP_TOL] = 0.0
    return x, lam


@pytest.mark.parametrize("size", [3, 4])
def test_corrected_inverse_matches_newton(size):
    family = with_target_diffeo(
        cube_family(size), ("p0", f"p{size}"), stretch_diffeo(size - 1)
    )
    atlas = build_collars(family, rng=np.random.default_rng(2))
    rng = np.random.default_rng(7)
    corrected = [c for c in atlas.charts.values() if not c.is_affine]
    assert corrected
    for chart in corrected:
        eps = atlas.eps(chart.chain)
        n = chart.chain.length
        # all positive, the corrected slot zero, one other slot zero, all zero
        zeros = [[], [chart.slot], [(chart.slot + 1) % n], list(range(n))]
        for patch in family.stratum(chart.chain).patches:
            X = _patch_rows(family, chart.chain, patch, len(zeros), rng)
            for x, zero in zip(X, zeros):
                lam = rng.uniform(0.05 * eps, 0.95 * eps, size=n)
                lam[zero] = 0.0
                y = chart.forward(patch.piece, x, lam)
                x2, lam2 = chart.inverse(patch.piece, y)
                xn, lamn = _newton_inverse(family, chart, patch.piece, y)
                assert np.max(np.abs(x2 - xn)) < 1e-12
                assert np.max(np.abs(lam2 - lamn)) < 1e-12
                # both round trips, and exact zeros stay exact
                assert np.max(np.abs(x2 - x)) < 1e-12
                assert np.max(np.abs(lam2 - lam)) < 1e-12
                assert np.all(lam2[zero] == 0.0)
                back = chart.forward(patch.piece, x2, lam2)
                assert np.max(np.abs(back - y)) < 1e-12


def test_stretched_identities_still_hold(stretched_atlas, rng):
    res1 = check_compat_one_pair(
        stretched_atlas, FULL, Chain(("p0", "p1", "p3")), samples=64, rng=rng
    )
    res2 = check_compat_concat(
        stretched_atlas, Chain(("p0", "p1")), Chain(("p1", "p2", "p3")),
        samples=64, rng=rng,
    )
    res3 = check_associativity(
        stretched_atlas, FULL.points, samples=2, grid=6, rng=rng
    )
    assert res1 < 1e-9
    assert res2 < 1e-9
    assert res3 < 1e-9


# -- face collars of a single space ------------------------------------


def test_single_space_empty_subset_is_inclusion(rng):
    collars = single_space_collars(box_space([1.0, 1.0]))
    point = (0, np.array([0.25, 0.75]))
    piece, out = collars.glue((), point, [])
    assert piece == 0
    assert np.array_equal(out, point[1])


def test_single_space_compat_dims_1_to_3(rng):
    for dim in (1, 2, 3):
        collars = single_space_collars(box_space([1.0] * dim))
        res = check_single_space_compat(collars, samples=400, rng=rng)
        assert res < 1e-9


def test_single_space_rejects_wrong_face_set(rng):
    collars = single_space_collars(box_space([1.0]))
    interior = (0, np.array([0.5]))
    with pytest.raises(InputError):
        collars.glue((0,), interior, [0.1])
    corner = (0, np.array([0.0]))
    with pytest.raises(RangeError):
        subset = next(s for s in collars.face_subsets() if s)
        # locate the subset pinning the lower wall, then exceed the range
        collars.glue(subset, corner, [1.5])


@pytest.mark.parametrize("build", [single_space_collars, SingleSpaceCollars])
def test_single_space_refuses_a_face_meeting_itself(build):
    # both lower walls of a square labelled "L": the corner where they
    # meet lies on one face twice, so the square is not a manifold with
    # faces under these labels
    labels = {(0, Wall(0, 0)): "L", (0, Wall(1, 0)): "L"}
    space = CorneredSpace(box_space([1.0, 1.0]).pieces, face_labels=labels)
    with pytest.raises(InputError, match="not a manifold with faces"):
        build(space)


def test_single_space_block_on_two_patches_of_one_face_raises():
    # one face made of both ends of an interval: each end alone collars
    labels = {(0, Wall(0, 0)): "ends", (0, Wall(0, 1)): "ends"}
    collars = single_space_collars(CorneredSpace(box_space([1.0]).pieces, face_labels=labels))
    ends = np.array([[0.0], [1.0]])
    for row in ends:
        collars.glue((0,), (0, row), [0.25])
    with pytest.raises(InputError, match="one stratum patch"):
        collars.glue((0,), (0, ends), np.full((2, 1), 0.25))


def test_single_space_block_with_other_faces_raises_like_first_row():
    collars = single_space_collars(box_space([1.0, 1.0]))
    # the two lower walls meet at the origin
    corner = next(
        s for s in collars.face_subsets()
        if collars.space.face_intersection([collars.faces[i] for i in s])
        == [StratumPatch(0, frozenset({Wall(0, 0), Wall(1, 0)}))]
    )
    collars.glue(corner, (0, [0.0, 0.0]), [0.1, 0.1])
    # rows pinning the corner, one lower wall, no wall, the corner
    rows = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(InputError) as first:
        collars.glue(corner, (0, rows[1]), [0.1, 0.1])
    with pytest.raises(InputError) as block:
        collars.glue(corner, (0, rows), np.full((4, 2), 0.1))
    assert str(block.value) == str(first.value)


# -- oracles: the per-point loops the row-block checks replaced --------
#
# Each reference below is the one-point loop the check ran before it
# took row blocks; the block form must give the same result from the
# same random stream, and leave the stream where the loop leaves it.

TORUS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "torus.json"


def _junction_residual_loop(atlas, chart, junction, eps, samples, rng):
    family = atlas.family
    chain = chart.chain
    slot = junction.slot
    space = family.space(*chain.pair)
    worst = 0.0
    for piece, coords in _points(family.sample_blocks(chain, samples, rng)):
        lam = rng.uniform(0.0, eps, size=chain.length)
        lam[slot] = 0.0
        lhs = chart.forward(piece, coords, lam)
        worst = max(worst, float(space.distance((piece, lhs), junction.glue(piece, coords, lam))))
    return worst


def _stratum_condition_loop(atlas, samples, rng):
    family = atlas.family
    chains = [c for c in atlas.charts if c.length >= 1]
    per = max(1, samples // len(chains))
    failures = total = 0
    for chain in chains:
        eps = atlas.eps(chain)
        space = family.space(*chain.pair)
        pts = _points(family.sample_blocks(chain, per, rng))
        zero = rng.random((len(pts), chain.length)) < 0.5
        vals = rng.uniform(0.05 * eps, 0.95 * eps, size=zero.shape)
        vals[zero] = 0.0
        for point, v in zip(pts, vals):
            expect = zero_support_subchain(
                GlueParam(chain, tuple(float(x) for x in v))
            )
            out = glue(atlas, chain, point, v)
            got = family.classify(chain.pair, out)
            total += 1
            if got != expect or space.depth(out) != expect.length:
                failures += 1
    return failures, total


def _differential_loop(atlas, chain, samples, rng):
    family = atlas.family
    eps = atlas.eps(chain)
    worst = 0.0
    for piece, coords in _points(family.sample_blocks(chain, samples, rng)):
        v = rng.uniform(0.1 * eps, 0.9 * eps, size=chain.length)
        jac = glue_differential(atlas, chain, (piece, coords), v)
        f, free = _glue_map(atlas, chain, (piece, coords))
        fd = fd_jacobian(f, np.concatenate([coords[free], v]), 1e-6)
        for jac_col, fd_col in zip(jac.T, fd.T):
            scale = max(1.0, float(np.linalg.norm(fd_col)))
            worst = max(worst, float(np.linalg.norm(jac_col - fd_col)) / scale)
    return worst


def _single_space_compat_loop(collars, samples, rng):
    subsets = [s for s in collars.face_subsets() if s]
    budget = max(1, samples // max(1, sum(2 ** len(s) for s in subsets)))
    worst = 0.0
    for I in subsets:
        for k in range(len(I) + 1):
            for J in combinations(I, k):
                points = [
                    (piece, x)
                    for piece, X in collars.sample_intersection(I, budget, rng)
                    for x in X
                ]
                for point in points:
                    vals = rng.uniform(0.0, 0.999, size=len(I))
                    piece, lhs = collars.glue(I, point, vals)
                    masked = vals.copy()
                    jpos = [I.index(j) for j in J]
                    masked[jpos] = 0.0
                    mid = collars.glue(I, point, masked)
                    _, rhs = collars.glue(J, mid, vals[jpos])
                    d = float(np.linalg.norm(lhs - rhs))
                    worst = max(worst, d)
    return worst


def _nested_loop(atlas, outer, inner, samples, rng):
    family = atlas.family
    eps = atlas.eps(outer)
    space = family.space(*outer.pair)
    inner_idx = [outer.interior.index(r) for r in inner.interior]
    outer_idx = [j for j in range(outer.length) if j not in inner_idx]
    patches = family.stratum(outer).patches
    per = max(2, -(-samples // len(patches)))
    worst = 0.0
    for piece, X in family.sample_blocks(outer, per * len(patches), rng):
        V = rng.uniform(0.0, eps, size=(per, outer.length))
        if outer_idx:
            V[:, outer_idx] = rng.uniform(0.05 * eps, 0.95 * eps, size=(per, len(outer_idx)))
        for x, v in zip(X, V):
            lhs = glue(atlas, outer, (piece, x), v)
            masked = v.copy()
            masked[inner_idx] = 0.0
            rhs = glue(atlas, inner, glue(atlas, outer, (piece, x), masked), v[inner_idx])
            worst = max(worst, float(space.distance(lhs, rhs)))
    return worst


def _concat_loop(atlas, first, second, samples, rng):
    family = atlas.family
    joined = concat_chains(first, second)
    emb = family.embedding(first.head, first.tail, second.tail)
    eps = atlas.eps(joined)
    space = family.space(*joined.pair)
    pa, pb = family.stratum(first).patches, family.stratum(second).patches
    per = max(2, -(-samples // (len(pa) * len(pb))))
    lefts = family.sample_blocks(first, per * len(pa), rng)
    rights = family.sample_blocks(second, per * len(pb), rng)
    worst = 0.0
    for (piece_a, X1), (piece_b, X2) in product(lefts, rights):
        V1 = rng.uniform(0.0, eps, size=(per, first.length))
        V2 = rng.uniform(0.0, eps, size=(per, second.length))
        for x1, x2, v1, v2 in zip(X1, X2, V1, V2):
            x = emb.forward((piece_a, x1), (piece_b, x2))
            lhs = glue(atlas, joined, x, np.concatenate([v1, [0.0], v2]))
            rhs = emb.forward(
                glue(atlas, first, (piece_a, x1), v1), glue(atlas, second, (piece_b, x2), v2)
            )
            worst = max(worst, float(space.distance(lhs, rhs)))
    return worst


def _associativity_loop(atlas, quad, samples, grid, rng):
    family = atlas.family
    p0, p1, p2, p3 = quad
    factors = [Chain(quad[i : i + 2]) for i in range(3)]
    blocks = [
        family.sample_blocks(c, samples * len(family.stratum(c).patches), rng) for c in factors
    ]
    eps = min(atlas.eps(Chain(quad[:3])), atlas.eps(Chain(quad[1:])), atlas.eps(Chain(quad)))
    lam = (np.arange(grid) + 0.5) / grid * eps
    e012, e023 = family.embedding(p0, p1, p2), family.embedding(p0, p2, p3)
    space = family.space(p0, p3)
    worst = 0.0
    for combo in product(*blocks):
        for g1, g2, g3 in zip(*(_points([b]) for b in combo)):
            for l1 in lam:
                for l2 in lam:
                    a = glue_pair(atlas, (p0, p1, p2), g1, g2, l1)
                    lhs = glue_pair(atlas, (p0, p2, p3), a, g3, l2)
                    b = glue_pair(atlas, (p1, p2, p3), g2, g3, l2)
                    rhs = glue_pair(atlas, (p0, p1, p3), g1, b, l1)
                    x = e023.forward(e012.forward(g1, g2), g3)
                    both = glue(atlas, Chain(quad), x, [l1, l2])
                    worst = max(
                        worst,
                        float(space.distance(lhs, rhs)),
                        float(space.distance(lhs, both)),
                        float(space.distance(rhs, both)),
                    )
    return worst


def _injectivity_loop(atlas, chain, samples, rng):
    family = atlas.family
    eps = atlas.eps(chain)
    patches = family.stratum(chain).patches
    per = max(2, samples // len(patches))
    best = np.inf
    for piece, X in family.sample_blocks(chain, per * len(patches), rng):
        V = rng.uniform(0.0, eps, size=(per, chain.length))
        out = [glue(atlas, chain, (piece, x), v)[1] for x, v in zip(X, V)]
        if not out[0].size:
            continue
        # lexicographic order, then the gap to each row's successor
        out.sort(key=tuple)
        for a, b in zip(out, out[1:]):
            best = min(best, float(np.linalg.norm(b - a, axis=-1)))
    return best


def _oracle_family(name):
    if name == "torus":
        return load_family(TORUS_FILE)
    if name == "cube5":
        return cube_family(5)
    diffeo = {"cube3": None, "stretched": stretch_diffeo(2), "sheared": shear_diffeo(2)}[name]
    family = cube_family(3)
    return family if diffeo is None else with_target_diffeo(family, ("p0", "p3"), diffeo)


@pytest.fixture(scope="module", params=["cube3", "stretched", "sheared", "cube5", "torus"])
def oracle_atlas(request):
    return build_collars(_oracle_family(request.param), rng=np.random.default_rng(11))


def _same_stream(seed, block, loop):
    """Run both forms from one seed: their results and next draws."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    return (block(rng_a), rng_a.random()), (loop(rng_b), rng_b.random())


def test_junction_residual_matches_point_loop(oracle_atlas):
    atlas = oracle_atlas
    checked = 0
    for chain, chart in atlas.charts.items():
        # the built chart, and the affine chart it started from, whose
        # residual is not zero where a correction was needed
        for c in (chart, AffineChart(atlas.family, chain)):
            for slot in range(chain.length):
                junction = _Junction(atlas, chain, slot)
                eps = atlas.eps(chain)
                block, loop = _same_stream(
                    slot,
                    lambda r: _junction_residual(atlas, c, junction, eps, r),
                    lambda r: _junction_residual_loop(atlas, c, junction, eps, 24, r),
                )
                assert block == loop
                checked += 1
    assert checked


def test_stratum_condition_matches_point_loop(oracle_atlas):
    block, loop = _same_stream(
        5,
        lambda r: check_stratum_condition(oracle_atlas, samples=600, rng=r),
        lambda r: _stratum_condition_loop(oracle_atlas, 600, r),
    )
    assert block == loop
    assert block[0][0] == 0


class _StuckChart(AffineChart):
    """An affine chart that ignores its first collar slot, so glued
    points stay on that wall: a stratum-condition failure wherever the
    slot's value is not zero."""

    def forward(self, piece, x, lam):
        lam = np.array(lam, dtype=float)
        lam[..., 0] = 0.0
        return super().forward(piece, x, lam)


def test_stratum_failures_match_point_loop():
    # the failure count depends on every zero pattern drawn, so it
    # pins the order of the draws
    atlas = build_collars(cube_family(3), rng=np.random.default_rng(1))
    atlas.charts[FULL] = _StuckChart(atlas.family, FULL)
    block, loop = _same_stream(
        8,
        lambda r: check_stratum_condition(atlas, samples=600, rng=r),
        lambda r: _stratum_condition_loop(atlas, 600, r),
    )
    assert block == loop
    assert 0 < block[0][0] < block[0][1]


def test_norms_match_one_point_norm(rng):
    for d in range(1, 9):
        A = rng.standard_normal((200, d)) * rng.uniform(1e-8, 1.0, size=(200, d))
        single = np.array([np.linalg.norm(a) for a in A])
        assert _norms(A).tobytes() == single.tobytes()
    # a strided view, as the differential check passes its columns
    J = rng.standard_normal((50, 3, 4))
    cols = np.swapaxes(J, 1, 2)
    single = np.array([[np.linalg.norm(c) for c in m.T] for m in J])
    assert _norms(cols).tobytes() == single.tobytes()


def test_differential_matches_point_loop(oracle_atlas):
    for chain in oracle_atlas.charts:
        block, loop = _same_stream(
            6,
            lambda r: check_differential(oracle_atlas, chain, samples=6, rng=r),
            lambda r: _differential_loop(oracle_atlas, chain, 6, r),
        )
        assert block == loop


def test_single_space_compat_matches_point_loop(oracle_atlas):
    family = oracle_atlas.family
    top = max(family.pairs(), key=lambda pq: family.space(*pq).dim)
    for space in (family.space(*top), box_space([1.0, 2.0, 0.5])):
        collars = single_space_collars(space)
        block, loop = _same_stream(
            4,
            lambda r: check_single_space_compat(collars, samples=300, rng=r),
            lambda r: _single_space_compat_loop(collars, 300, r),
        )
        assert block == loop


def test_nested_matches_point_loop(oracle_atlas):
    checked = 0
    for outer in oracle_atlas.charts:
        for k in range(outer.length + 1):
            for kept in combinations(outer.interior, k):
                inner = Chain((outer.head, *kept, outer.tail))
                block, loop = _same_stream(
                    k,
                    lambda r: check_compat_one_pair(oracle_atlas, outer, inner, samples=8, rng=r),
                    lambda r: _nested_loop(oracle_atlas, outer, inner, 8, r),
                )
                assert block == loop
                checked += 1
    assert checked


def test_concat_matches_point_loop(oracle_atlas):
    family = oracle_atlas.family
    checked = 0
    for p, r, q in family.triples():
        for first in family.chains(p, r):
            for second in family.chains(r, q):
                block, loop = _same_stream(
                    2,
                    lambda g: check_compat_concat(oracle_atlas, first, second, samples=8, rng=g),
                    lambda g: _concat_loop(oracle_atlas, first, second, 8, g),
                )
                assert block == loop
                checked += 1
    assert checked


def test_associativity_matches_point_loop(oracle_atlas):
    family = oracle_atlas.family
    quads = {c.points for pq in family.pairs() for c in family.chains(*pq) if c.length == 2}
    for quad in sorted(quads):
        block, loop = _same_stream(
            3,
            lambda r: check_associativity(oracle_atlas, quad, samples=3, grid=3, rng=r),
            lambda r: _associativity_loop(oracle_atlas, quad, 3, 3, r),
        )
        assert block == loop
        assert block[0] < 1e-9


def test_injectivity_matches_point_loop(oracle_atlas):
    for chain in oracle_atlas.charts:
        block, loop = _same_stream(
            1,
            lambda r: check_injectivity(oracle_atlas, chain, samples=40, rng=r),
            lambda r: _injectivity_loop(oracle_atlas, chain, 40, r),
        )
        assert block == loop
        assert block[0] > 0



class _WarpedChart(AffineChart):
    """An affine chart that stretches each collar value t by 0.3 t (1 - t)
    times the mean collar value, which keeps [0, 1].  The cube families'
    routes read the sampled coordinates as collar values, so the
    identities fail by amounts that depend on every point drawn."""

    def forward(self, piece, x, lam):
        lam = np.asarray(lam, dtype=float)
        mean = lam.mean(axis=-1, keepdims=True)
        return super().forward(piece, x, lam + 0.3 * lam * (1.0 - lam) * mean)


@pytest.fixture(scope="module")
def warped_atlas():
    atlas = build_collars(cube_family(5), rng=np.random.default_rng(11))
    for chain in atlas.charts:
        atlas.charts[chain] = _WarpedChart(atlas.family, chain)
    return atlas


def test_identity_checks_match_point_loops_on_warped_charts(warped_atlas):
    # every residual depends on the points drawn, so equal results pin
    # which draw meets which factor, sample and collar value
    atlas = warped_atlas
    family = atlas.family
    results = []
    outer = Chain(("p0", "p1", "p3", "p5"))
    for inner in (Chain(("p0", "p1", "p5")), Chain(("p0", "p3", "p5"))):
        block, loop = _same_stream(
            4,
            lambda r: check_compat_one_pair(atlas, outer, inner, samples=6, rng=r),
            lambda r: _nested_loop(atlas, outer, inner, 6, r),
        )
        results.append((block, loop))
    for first, second in ((Chain(("p0", "p1", "p2")), Chain(("p2", "p4", "p5"))),
                          (Chain(("p0", "p1", "p3")), Chain(("p3", "p4", "p5")))):
        block, loop = _same_stream(
            5,
            lambda r: check_compat_concat(atlas, first, second, samples=6, rng=r),
            lambda r: _concat_loop(atlas, first, second, 6, r),
        )
        results.append((block, loop))
    quads = {c.points for pq in family.pairs() for c in family.chains(*pq) if c.length == 2}
    for quad in sorted(quads):
        block, loop = _same_stream(
            6,
            lambda r: check_associativity(atlas, quad, samples=3, grid=3, rng=r),
            lambda r: _associativity_loop(atlas, quad, 3, 3, r),
        )
        results.append((block, loop))
    for block, loop in results:
        assert block == loop
    assert all(block[0] > 1e-6 for block, _ in results[:4])
    assert sum(block[0] > 1e-6 for block, _ in results[4:]) >= 10
