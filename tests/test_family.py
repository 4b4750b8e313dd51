"""Stratified families: generators, validation, mutations, file format."""

from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from strataglue import (
    Chain,
    CriticalPoint,
    InputError,
    UnsupportedDimensionError,
    Wall,
    cube_family,
    from_morse,
    load_family,
    save_family,
    shear_diffeo,
    stretch_diffeo,
    validate_family,
    with_flipped_embedding,
    with_target_diffeo,
)
from strataglue.family import FaceEmbedding
from strataglue.morse import ArcEndData, ModuliArc, PairData
from strataglue.numerics import fd_jacobian
from strataglue.poset import concat_chains

#: an exported torus family: four arcs, two 4-entry point-pair maps
TORUS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "torus.json"


# -- linear model family -----------------------------------------------


def test_cube3_structure(cube3_family):
    family = cube3_family
    assert len(family.pairs()) == 6
    assert len(family.chains("p0", "p3")) == 4
    assert family.space("p0", "p3").dim == 2
    assert family.space("p0", "p1").dim == 0


def test_cube_size_limits():
    with pytest.raises(InputError):
        cube_family(0)
    with pytest.raises(InputError):
        cube_family(6)


def _points(blocks):
    """(piece, rows) blocks flattened to (piece, coords) points in row order."""
    return [(piece, x) for piece, X in blocks for x in X]


def test_classify_and_sampling(cube3_family, rng):
    family = cube3_family
    full = Chain(("p0", "p1", "p2", "p3"))
    for chain in family.chains("p0", "p3"):
        for point in _points(family.sample_blocks(chain, 8, rng)):
            assert family.classify(("p0", "p3"), point) == chain
    # the deepest stratum pins every wall
    (point,) = _points(family.sample_blocks(full, 1, rng))
    assert np.allclose(point[1], 0.0)


def test_classify_rows_match_per_row(cube3_family, rng):
    family = cube3_family
    pair = ("p0", "p3")
    # one block with rows of every stratum, and one on an unrecorded wall
    rows = np.vstack(
        [X for chain in family.chains(*pair) for _, X in family.sample_blocks(chain, 3, rng)]
        + [[[1.0, 0.5]]]
    )
    assert family.classify(pair, (0, rows)) == [family.classify(pair, (0, r)) for r in rows]


def _sample_stratum_loop(family, chain, count, rng):
    """The per-point sampler that ``sample_blocks`` replaced."""
    stratum = family.stratum(chain)
    pieces = family.space(*chain.pair).pieces
    out = []
    per = -(-count // len(stratum.patches))
    for patch in stratum.patches:
        for coords in pieces[patch.piece].sample(per, rng, patch.walls):
            out.append((patch.piece, coords))
    return out[:count]


def test_sample_blocks_draw_like_the_point_loop():
    # four patches per junction chain: counts that cut the last patch
    # short, and that leave patches without rows
    family = load_family(TORUS_FILE)
    for chain in (Chain(("c0", "c1", "c3")), Chain(("c0", "c3"))):
        for count in (1, 3, 6, 8):
            rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
            blocks = family.sample_blocks(chain, count, rng_a)
            loop = _sample_stratum_loop(family, chain, count, rng_b)
            flat = _points(blocks)
            assert [(p, x.tobytes()) for p, x in flat] == [(p, x.tobytes()) for p, x in loop]
            assert all(len(X) for _, X in blocks)
            # the stream goes on where the loop leaves it
            assert rng_a.random() == rng_b.random()
        # per rows on each of the four patches
        blocks = family.sample_blocks(chain, 3 * 4, np.random.default_rng(3))
        assert [len(X) for _, X in blocks] == [3] * 4


def test_validation_sends_every_piece_pair_through_each_embedding(monkeypatch):
    # the torus file's embeddings map four pairs of factor pieces each;
    # zipping the factors' samples row by row reached only two of them
    family = load_family(TORUS_FILE)
    used = {}
    forward = FaceEmbedding.forward

    def spy(self, left, right):
        used.setdefault(id(self), set()).add((left[0], right[0]))
        return forward(self, left, right)

    monkeypatch.setattr(FaceEmbedding, "forward", spy)
    assert validate_family(family, samples=64, rng=np.random.default_rng(0)).passed
    for triple, emb in family.embeddings.items():
        assert used.get(id(emb)) == set(emb.piece_map), triple


def test_validate_cube3(cube3_family, rng):
    report = validate_family(cube3_family, samples=16, rng=rng)
    assert report.passed
    assert report.failures() == []


def test_validate_stretched_family(rng):
    family = with_target_diffeo(
        cube_family(2), ("p0", "p2"), stretch_diffeo(1)
    )
    report = validate_family(family, samples=16, rng=rng)
    assert report.passed


def test_flip_mutation_is_detected(rng):
    family = with_flipped_embedding(cube_family(3), ("p0", "p2", "p3"))
    report = validate_family(family, samples=32, rng=rng)
    assert not report.passed
    fail = report.first_failure()
    assert fail.name
    assert fail.witness


def test_flip_needs_a_real_axis():
    with pytest.raises(InputError):
        # left factor of (p0, p1, p3) is zero-dimensional: no axis to flip
        with_flipped_embedding(cube_family(3), ("p0", "p1", "p3"))


# -- diffeos -----------------------------------------------------------


def test_shear_inverse_round_trip(rng):
    for kwargs in ({}, {"strength": -0.9}, {"strength": 0.7, "axis": 2, "driver": 0}):
        d = shear_diffeo(3, **kwargs)
        W = rng.uniform(0, 1, size=(32, 3))
        worst = max(float(np.max(np.abs(d.inverse(d(w)) - w))) for w in W)
        assert worst < 1e-12, kwargs
        # rows at once give the same points
        assert np.max(np.abs(d.inverse(d(W)) - W)) < 1e-12, kwargs
        # a point on a wall is fixed; its inverse must still be a new array
        wall = np.array([0.0, 0.5, 0.5])
        assert d.inverse(wall) is not wall


@pytest.mark.parametrize(
    "kwargs",
    [
        {"strength": 1.0},
        {"strength": -1.5},
        {"axis": 1, "driver": 1},
        {"axis": 3},
        {"axis": -1},
        {"driver": 3},
    ],
    ids=["strength-1", "strength-minus-1.5", "driver-is-axis", "axis-3", "axis-minus-1",
         "driver-3"],
)
def test_shear_rejects_a_non_injective_or_ill_posed_shear(kwargs):
    with pytest.raises(InputError):
        shear_diffeo(3, **kwargs)


# -- product embeddings on rows ----------------------------------------


def _embedding_case(name):
    cube = cube_family(4)
    triple = ("p0", "p2", "p4")
    if name == "slot":
        return cube, triple
    if name == "flipped-slot":
        return with_flipped_embedding(cube, triple), triple
    if name == "point-pair":
        ends = (tiny_end(), None)
        family = from_morse(tiny_points(), tiny_relations(), tiny_moduli(ends))
        return family, ("p", "r", "q")
    if name == "torus-point-pairs":
        return load_family(TORUS_FILE), ("c0", "c1", "c3")
    diffeo = stretch_diffeo(3) if name == "stretch" else shear_diffeo(3)
    return with_target_diffeo(cube, ("p0", "p4"), diffeo), triple


@pytest.mark.parametrize(
    "name",
    ["slot", "flipped-slot", "point-pair", "torus-point-pairs", "stretch", "shear"],
)
def test_stacked_forward_matches_per_row(name, rng):
    family, (p, r, q) = _embedding_case(name)
    emb = family.embedding(p, r, q)
    lc, rc = Chain((p, r)), Chain((r, q))
    for lpatch in family.stratum(lc).patches:
        for rpatch in family.stratum(rc).patches:
            L = family.space(p, r).pieces[lpatch.piece].sample(6, rng, lpatch.walls)
            R = family.space(r, q).pieces[rpatch.piece].sample(6, rng, rpatch.walls)
            piece, rows = emb.forward((lpatch.piece, L), (rpatch.piece, R))
            single = [
                emb.forward((lpatch.piece, u), (rpatch.piece, v)) for u, v in zip(L, R)
            ]
            assert {pc for pc, _ in single} == {piece}
            expect = np.stack([c for _, c in single])
            assert rows.shape == expect.shape == (6, family.space(p, q).dim)
            assert rows.tobytes() == expect.tobytes()
            (lp, U), (rp, W) = emb.inverse((piece, rows))
            assert (lp, rp) == (lpatch.piece, rpatch.piece)
            back = [emb.inverse((piece, w)) for w in rows]
            assert {(a[0], b[0]) for a, b in back} == {(lp, rp)}
            assert U.tobytes() == np.stack([a[1] for a, _ in back]).tobytes()
            assert W.tobytes() == np.stack([b[1] for _, b in back]).tobytes()


def test_inverse_rejects_rows_on_two_walls():
    family = load_family(TORUS_FILE)
    emb = family.embedding("c0", "c1", "c3")
    piece = family.space("c0", "c3").pieces[0]
    # (c0,c1,c3) ends on the lower wall of arc 0, (c0,c2,c3) on its upper
    ends = np.array([[piece.lower[0]], [piece.upper[0]]])
    assert emb.inverse((0, ends[:1]))[0][0] == 0
    with pytest.raises(InputError):
        emb.inverse((0, ends))
    with pytest.raises(InputError):
        emb.inverse((0, ends[1:]))


# -- file format -------------------------------------------------------


def test_save_load_roundtrip(cube3_family, tmp_path, rng):
    path = tmp_path / "family.json"
    save_family(cube3_family, path)
    loaded = load_family(path)
    assert loaded.name == cube3_family.name
    assert loaded.pairs() == cube3_family.pairs()
    for p, q in loaded.pairs():
        assert loaded.chains(p, q) == cube3_family.chains(p, q)
    assert validate_family(loaded, samples=8, rng=rng).passed


def test_save_load_keeps_flips_and_point_pair_maps(tmp_path):
    flipped = with_flipped_embedding(cube_family(3), ("p0", "p2", "p3"))
    for family in (flipped, load_family(TORUS_FILE)):
        path = tmp_path / "family.json"
        save_family(family, path)
        loaded = load_family(path)
        assert loaded.triples() == family.triples()
        for triple in family.triples():
            emb, back = family.embedding(*triple), loaded.embedding(*triple)
            assert back.piece_map == emb.piece_map
            assert back.flip_axes == emb.flip_axes
    assert loaded.embedding("c0", "c1", "c3").piece_map[(1, 0)] == (2, Wall(0, 0))
    assert len(loaded.embedding("c0", "c2", "c3").piece_map) == 4
    assert flipped.embedding("p0", "p2", "p3").flip_axes == (0,)


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "family.json"
    path.write_text('{"schema_version": 99}')
    with pytest.raises(InputError):
        load_family(path)


# -- assembly from flow data -------------------------------------------


def tiny_moduli(arc_ends):
    # Morse records as analyze stores them; from_morse reads an isolated
    # pair's count, the length of its trajectory list
    return {
        ("p", "r"): PairData(("p", "r"), 0, trajectories=[None]),
        ("r", "q"): PairData(("r", "q"), 0, trajectories=[None]),
        ("p", "q"): PairData(
            ("p", "q"), 1, arcs=[ModuliArc(0.0, 1.0, arc_ends, length=1.0)]
        ),
    }


def tiny_end():
    """An arc end breaking at r into the one (p,r) and (r,q) trajectory."""
    return ArcEndData("r", 0, 0, angle=0.0, hausdorff=0.0)


def tiny_points():
    return [
        CriticalPoint("p", 2), CriticalPoint("r", 1), CriticalPoint("q", 0)
    ]


def tiny_relations():
    return [("p", "r"), ("r", "q"), ("p", "q")]


def test_from_morse_assembles_family(rng):
    ends = (tiny_end(), None)
    family = from_morse(tiny_points(), tiny_relations(), tiny_moduli(ends))
    assert family.pairs() == [("p", "q"), ("p", "r"), ("r", "q")]
    assert validate_family(family, samples=16, rng=rng).passed


def test_from_morse_rejects_unmatched_broken_pair():
    with pytest.raises(InputError):
        from_morse(tiny_points(), tiny_relations(), tiny_moduli((None, None)))


def test_from_morse_rejects_double_matched_pair():
    ends = (tiny_end(), tiny_end())
    with pytest.raises(InputError):
        from_morse(tiny_points(), tiny_relations(), tiny_moduli(ends))


def test_from_morse_rejects_high_dimension():
    moduli = {("p", "q"): PairData(("p", "q"), 2)}
    with pytest.raises(UnsupportedDimensionError):
        from_morse([CriticalPoint("p", 3), CriticalPoint("q", 0)],
                   [("p", "q")], moduli)


def test_from_morse_rejects_empty_moduli():
    moduli = {("p", "q"): PairData(("p", "q"), 0)}
    with pytest.raises(InputError):
        from_morse([CriticalPoint("p", 1), CriticalPoint("q", 0)],
                   [("p", "q")], moduli)


# -- oracle: the per-point loops the row-block validation replaced -----

SAMPLED = (
    "partition.sampled", "embedding.stratum", "embedding.injective",
    "embedding.rank", "embedding.coherence",
)


def _validate_loop(family, samples, rng, tol):
    """The sampled checks of ``validate_family`` point by point, in its
    draw order: one (name, subject, passed, residual, witness) per record."""
    records = []

    def per_patch(chain, per):
        return family.sample_blocks(chain, per * len(family.stratum(chain).patches), rng)

    for p, q in family.pairs():
        space = family.space(p, q)
        witness = ""
        for chain in family.chains(p, q):
            for point in _points(family.sample_blocks(chain, max(2, samples // 8), rng)):
                got, depth = family.classify((p, q), point), space.depth(point)
                if (got != chain or depth != chain.length) and not witness:
                    witness = f"{chain} sample classified as {got} at depth {depth}"
        records.append(("partition.sampled", f"({p},{q})", witness == "", 0.0, witness))
    n = max(2, samples // 16)
    for p, r, q in family.triples():
        emb = family.embedding(p, r, q)
        subject = f"({p},{r},{q})"
        witness = ""
        seen = []
        for lc in family.chains(p, r):
            for rc in family.chains(r, q):
                expected = concat_chains(lc, rc)
                for (lp, L), (rp, R) in product(per_patch(lc, n), per_patch(rc, n)):
                    for u, v in zip(L, R):
                        image = emb.forward((lp, u), (rp, v))
                        got = family.classify((p, q), image)
                        if got != expected and not witness:
                            witness = f"{lc}*{rc} sample landed in {got}, expected {expected}"
                        seen.append(((lp, u), (rp, v), image))
        records.append(("embedding.stratum", subject, witness == "", 0.0, witness))
        clash = any(
            family.space(p, q).distance(img, other) < 1e-12
            and not (
                family.space(p, r).distance(a, a2) < 1e-9
                and family.space(r, q).distance(b, b2) < 1e-9
            )
            for i, (a, b, img) in enumerate(seen)
            for a2, b2, other in seen[:i]
        )
        records.append((
            "embedding.injective", subject, not clash, 0.0,
            "two distinct products map to one point" if clash else "",
        ))
        nl = family.space(p, r).dim
        if nl + family.space(r, q).dim == 0:
            records.append(("embedding.rank", subject, True, 0.0, ""))
            continue
        worst = np.inf
        for (lp, L), (rp, R) in product(per_patch(Chain((p, r)), 4), per_patch(Chain((r, q)), 4)):
            for u, v in zip(L, R):
                jac = fd_jacobian(
                    lambda z: emb.forward((lp, z[:nl]), (rp, z[nl:]))[1],
                    np.concatenate([u, v]), 1e-6,
                )
                worst = min(worst, float(np.linalg.svd(jac, compute_uv=False)[-1]))
        records.append((
            "embedding.rank", subject, worst > 1e-9, worst,
            "" if worst > 1e-9 else f"smallest singular value {worst:.2e}",
        ))
    quads = sorted({
        (p, s, r, q)
        for p, s, q in family.triples()
        for s2, r, q2 in family.triples()
        if s2 == s and q2 == q
        and {(p, r, q), (s, r, q), (p, s, r)} <= set(family.embeddings)
    })
    for p, s, r, q in quads:
        worst, witness = 0.0, ""
        factors = [per_patch(Chain(pair), n) for pair in ((p, s), (s, r), (r, q))]
        for blocks in product(*factors):
            for u, v, w in zip(*(_points([b]) for b in blocks)):
                left = family.embedding(p, r, q).forward(
                    family.embedding(p, s, r).forward(u, v), w
                )
                right = family.embedding(p, s, q).forward(
                    u, family.embedding(s, r, q).forward(v, w)
                )
                d = float(family.space(p, q).distance(left, right))
                if d > worst:
                    worst = d
                    if d > tol:
                        witness = (
                            f"associating ({p}>{s}>{r}) then {q} vs {s} then "
                            f"({s}>{r}>{q}) differs by {d:.3e}"
                        )
        records.append(("embedding.coherence", f"({p},{s},{r},{q})", worst <= tol, worst, witness))
    return records


def _validation_family(name):
    if name == "torus":
        return load_family(TORUS_FILE)
    if name == "cube5":
        return cube_family(5)
    if name == "flipped":
        return with_flipped_embedding(cube_family(3), ("p0", "p2", "p3"))
    if name == "incoherent":
        # one embedding into (p0, p5) stretched, the others not: the two
        # bracketings differ by amounts that depend on the samples
        family = cube_family(5)
        family.embeddings[("p0", "p2", "p5")] = replace(
            family.embedding("p0", "p2", "p5"), target_map=stretch_diffeo(4)
        )
        return family
    diffeo = {"cube3": None, "stretched": stretch_diffeo(2), "sheared": shear_diffeo(2)}[name]
    family = cube_family(3)
    return family if diffeo is None else with_target_diffeo(family, ("p0", "p3"), diffeo)


@pytest.mark.parametrize(
    "name", ["cube3", "stretched", "sheared", "cube5", "torus", "flipped", "incoherent"]
)
def test_validate_family_matches_point_loop(name):
    family = _validation_family(name)
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    report = validate_family(family, samples=64, rng=rng_a)
    block = [
        (r.name, r.subject, r.passed, r.residual, r.witness)
        for r in report.records if r.name in SAMPLED
    ]
    assert block == _validate_loop(family, 64, rng_b, 1e-9)
    assert rng_a.random() == rng_b.random()
    assert report.passed == (name not in ("flipped", "incoherent"))
