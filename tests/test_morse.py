"""Gradient-flow engine: critical points, trajectories, moduli, gluing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strataglue import (
    InputError,
    RangeError,
    analyze,
    detect_broken,
    double_system,
    find_critical_points,
    find_trajectories,
    round_sphere,
    system_from_expression,
    tilted_torus,
)
from strataglue.morse import (
    _points_to_polyline,
    hausdorff,
    hausdorff_to_union,
    integrate_flow,
    interval_well,
    parse_expression,
)
from scipy.optimize import brentq


# -- critical points on the torus --------------------------------------


def test_torus_critical_points(torus_analysis):
    crits = torus_analysis.critical_points
    assert [c.id for c in crits] == ["c0", "c1", "c2", "c3"]
    assert [c.index for c in crits] == [2, 1, 1, 0]
    assert all(c.gradient_norm < 1e-8 for c in crits)
    assert all(c.morse for c in crits)
    values = [c.value for c in crits]
    assert values == sorted(values, reverse=True)


def test_torus_isolated_counts(torus_analysis):
    for pair in (("c0", "c1"), ("c0", "c2"), ("c1", "c3"), ("c2", "c3")):
        data = torus_analysis.pairs[pair]
        assert data.dim == 0
        assert len(data.trajectories) == 2


def test_moduli_dimension_matches_index_gap(torus_analysis):
    for (p, q), data in torus_analysis.pairs.items():
        gap = torus_analysis.by_id[p].index - torus_analysis.by_id[q].index
        assert data.dim == gap - 1


def test_torus_arcs_have_matched_ends(torus_analysis):
    data = detect_broken(tilted_torus(), "c0", "c3", analysis=torus_analysis)
    assert data.dim == 1
    assert data.circle is None
    seen = set()
    for arc in data.arcs:
        assert len(arc.ends) == 2
        assert arc.length > 0
        for end in arc.ends:
            assert end is not None
            assert end.junction in {"c1", "c2"}
            assert end.hausdorff < 1e-2
            key = (end.junction, end.left_index, end.right_index)
            assert key not in seen
            seen.add(key)
    # every broken pair bounds exactly one arc end
    expect = {
        (j, a, b)
        for j in ("c1", "c2")
        for a in range(2)
        for b in range(2)
    }
    assert seen == expect


# -- flow invariants ---------------------------------------------------


def test_f_decreases_along_trajectories(torus_analysis):
    system = torus_analysis.system
    for pair in (("c1", "c3"), ("c0", "c1")):
        for traj in torus_analysis.pairs[pair].trajectories:
            values = np.array([system.f(u) for u in traj.states])
            assert np.all(np.diff(values) <= 1e-10)


def test_trajectory_endpoints(torus_analysis):
    system = torus_analysis.system
    traj = torus_analysis.pairs[("c1", "c3")].trajectories[0]
    src = torus_analysis.by_id["c1"].location
    dst = torus_analysis.by_id["c3"].location
    assert system.distance(traj.states[0], src) < 1e-9
    assert system.distance(traj.states[-1], dst) < 1e-9


def test_anchor_stable_under_restart(torus_analysis):
    # re-integrating from a point part-way down the same trajectory, with
    # a different stopping threshold, must reproduce the mid-level anchor
    system = torus_analysis.system
    c1 = torus_analysis.by_id["c1"]
    c3 = torus_analysis.by_id["c3"]
    mid = 0.5 * (c1.value + c3.value)
    traj = torus_analysis.pairs[("c1", "c3")].trajectories[0]
    j = next(
        i for i, u in enumerate(traj.states) if system.f(u) < c1.value - 0.05
        and system.f(u) > mid + 0.05
    )
    seg = integrate_flow(system, traj.states[j], stop_speed=1e-6)
    fs = np.array([system.f(u) for u in seg.states])
    k = int(np.searchsorted(-fs, -mid))
    t_mid = brentq(
        lambda t: system.f(seg.sol.sol(t)) - mid,
        seg.times[k - 1], seg.times[k], xtol=1e-12,
    )
    anchor = seg.sol.sol(t_mid)
    assert system.distance(anchor, traj.anchor) < 1e-6


def test_gradient_matches_finite_differences(rng):
    system = tilted_torus()
    h = 1e-6
    worst = 0.0
    for u in rng.uniform(0.0, 2 * math.pi, size=(1000, 2)):
        g = system.grad(u)
        fd = np.empty(2)
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd[a] = (system.f(u + e) - system.f(u - e)) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(fd)))
        worst = max(worst, float(np.linalg.norm(g - fd)) / scale)
    assert worst < 1e-6


def test_find_trajectories_wrapper(torus_analysis):
    system = torus_analysis.system
    trajs = find_trajectories(system, "c1", "c3", analysis=torus_analysis)
    assert len(trajs) == 2
    reps = find_trajectories(system, "c0", "c3", analysis=torus_analysis)
    assert len(reps) == 5 * len(torus_analysis.pairs[("c0", "c3")].arcs)
    assert find_trajectories(system, "c3", "c0", analysis=torus_analysis) == []


def test_glue_rejects_bad_parameters(torus_analysis):
    data = torus_analysis.pairs[("c0", "c3")]
    end = data.arcs[0].ends[0]
    g1 = torus_analysis.pairs[("c0", end.junction)].trajectories[end.left_index]
    g2 = torus_analysis.pairs[(end.junction, "c3")].trajectories[end.right_index]
    with pytest.raises(RangeError):
        torus_analysis.glue(g1, g2, 0.0)
    with pytest.raises(RangeError):
        torus_analysis.glue(g1, g2, 1e6)
    with pytest.raises(InputError):
        torus_analysis.glue(g2, g1, 0.01)  # no shared junction


# -- sphere ------------------------------------------------------------


def test_sphere_circle_moduli():
    analysis = analyze(round_sphere())
    crits = analysis.critical_points
    assert len(crits) == 2
    assert [c.index for c in crits] == [2, 0]
    data = analysis.pairs[("c0", "c1")]
    assert data.dim == 1
    assert data.circle is not None
    assert abs(data.circle - 2 * math.pi) < 0.05


# -- decoupled two-factor system ---------------------------------------


@pytest.fixture(scope="module")
def double_analysis():
    return analyze(double_system())


def test_double_system_structure(double_analysis):
    crits = double_analysis.critical_points
    assert [c.index for c in crits] == [2, 1, 1, 0]
    for pair in (("c0", "c1"), ("c0", "c2"), ("c1", "c3"), ("c2", "c3")):
        assert len(double_analysis.pairs[pair].trajectories) == 1
    data = double_analysis.pairs[("c0", "c3")]
    assert data.dim == 1
    assert len(data.arcs) == 1
    junctions = {e.junction for e in data.arcs[0].ends}
    assert junctions == {"c1", "c2"}


def test_double_system_analytic_profile(double_analysis):
    # each factor flows independently: x(t) = tanh(t - a) and
    # y(t) = tanh(w (t - b)) for constants a, b along any one trajectory
    data = double_analysis.pairs[("c0", "c3")]
    end = data.arcs[0].ends[0]
    g1 = double_analysis.pairs[("c0", end.junction)].trajectories[end.left_index]
    g2 = double_analysis.pairs[(end.junction, "c3")].trajectories[end.right_index]
    glued = double_analysis.glue(g1, g2, 0.01)
    t = glued.times
    x, y = glued.states[:, 0], glued.states[:, 1]
    mx = np.abs(x) < 0.9999
    my = np.abs(y) < 0.9999
    assert mx.sum() > 10 and my.sum() > 10
    a = t[mx] - np.arctanh(x[mx])
    b = t[my] - np.arctanh(y[my]) / 1.3
    assert np.std(a) < 1e-6
    assert np.std(b) < 1e-6


# -- one-dimensional and degenerate inputs -----------------------------


def test_interval_well():
    analysis = analyze(interval_well())
    assert len(analysis.critical_points) == 1
    assert analysis.critical_points[0].index == 0
    assert analysis.pairs == {}


def test_degenerate_function_rejected():
    system = system_from_expression("x**4 + y**4", 2, box=[[-2, 2], [-2, 2]])
    with pytest.raises(InputError):
        analyze(system)


def test_no_critical_points_rejected():
    system = system_from_expression("x + y", 2, box=[[-1, 1], [-1, 1]])
    with pytest.raises(InputError):
        find_critical_points(system)


# -- expression parsing ------------------------------------------------


def test_parse_expression_evaluates():
    fn = parse_expression("sin(x) + 2*y**2 - exp(-x)", ["x", "y"])
    x, y = 0.3, -1.2
    assert abs(fn([x, y]) - (math.sin(x) + 2 * y**2 - math.exp(-x))) < 1e-12


def test_parse_expression_rejections():
    for bad in (
        "__import__('os')",
        "x.real",
        "abs(x)",
        "x if y else 0",
        "lambda: 1",
        "x < y",
        "f(",
        "unknown_name",
    ):
        with pytest.raises(InputError):
            parse_expression(bad, ["x", "y"])


def test_expression_system_accepts_both_spellings(rng):
    a = system_from_expression("x*x + 0.5*y*y", 2, box=[[-1, 1], [-1, 1]])
    b = system_from_expression("x0*x0 + 0.5*x1*x1", 2, box=[[-1, 1], [-1, 1]])
    for u in rng.uniform(-1, 1, size=(20, 2)):
        assert abs(a.f(u) - b.f(u)) < 1e-12


def test_expression_dimension_limits():
    from strataglue import UnsupportedDimensionError

    with pytest.raises(UnsupportedDimensionError):
        system_from_expression("x", 0)
    with pytest.raises(UnsupportedDimensionError):
        system_from_expression("x", 4)


# -- polyline distance --------------------------------------------------


def test_hausdorff_basics():
    P = np.array([[0.0, 0.0], [1.0, 0.0]])
    Q = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert hausdorff(P, P) == 0.0
    assert abs(hausdorff(P, Q) - 1.0) < 1e-12
    # union of two halves covers the whole segment
    R = np.array([[0.0, 0.0], [0.5, 0.0]])
    S = np.array([[0.5, 0.0], [1.0, 0.0]])
    assert hausdorff_to_union(P, [R, S]) < 1e-12


# exactness of the early-break search against the dense pass


def _dense_hausdorff(P, Q):
    if len(Q) < 2:
        return float(np.linalg.norm(P - Q[0], axis=1).max())
    if len(P) < 2:
        return float(_points_to_polyline(Q, P.repeat(2, axis=0)).max())
    return float(max(_points_to_polyline(P, Q).max(),
                     _points_to_polyline(Q, P).max()))


def _dense_to_union(P, parts):
    to_union = np.min([_points_to_polyline(P, Q) for Q in parts], axis=0)
    back = max(_points_to_polyline(Q, P).max() for Q in parts)
    return float(max(to_union.max(), back))


@st.composite
def _polyline(draw, dim, min_size=1):
    # random walk whose steps mix repeated vertices, fine and coarse sampling
    steps = np.array(draw(st.lists(
        st.sampled_from([0.0, 1e-7, 1e-4, 1e-2, 0.3, 2.0]),
        min_size=min_size - 1, max_size=59,
    ))).reshape(-1, 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dirs = rng.normal(size=(len(steps), dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    start = rng.uniform(-3.0, 3.0, dim)
    return np.vstack([start, start + np.cumsum(steps * dirs, axis=0)])


@st.composite
def _companion(draw, P, min_size=1):
    """A second curve near P, as the end tables compare them, or not."""
    kind = draw(st.sampled_from(
        ["independent", "same", "nearby", "sparser", "denser"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "same":
        # every point's vertex bound is 0, yet the kernel can return an
        # ulp or two at the last vertex
        Q = P.copy()
    elif kind == "nearby":
        Q = P + 10.0 ** -draw(st.integers(2, 9)) * rng.normal(size=P.shape)
    elif kind == "sparser":
        keep = rng.random(len(P)) < draw(st.sampled_from([0.05, 0.3, 0.8]))
        Q = P[keep]
    elif kind == "denser":
        # every vertex of P is a vertex of Q, so P's vertex bounds are 0
        mid = 0.5 * (P[:-1] + P[1:])
        Q = np.insert(P, np.arange(1, len(P)), mid, axis=0)
    else:
        Q = draw(_polyline(P.shape[1], min_size))
    if len(Q) < min_size:
        Q = np.vstack([Q, P[-min_size:]])
    return Q


@st.composite
def _curve_pair(draw):
    P = draw(_polyline(draw(st.sampled_from([2, 3]))))
    Q = draw(_companion(P))
    return (Q, P) if draw(st.booleans()) else (P, Q)


@st.composite
def _curve_and_parts(draw):
    P = draw(_polyline(draw(st.sampled_from([2, 3])), min_size=2))
    n = draw(st.integers(1, 3))
    return P, [draw(_companion(P, min_size=2)) for _ in range(n)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_curve_pair())
def test_hausdorff_equals_dense_pass(pair):
    P, Q = pair
    assert hausdorff(P, Q) == _dense_hausdorff(P, Q)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_curve_and_parts())
def test_hausdorff_to_union_equals_dense_pass(case):
    P, parts = case
    assert hausdorff_to_union(P, parts) == _dense_to_union(P, parts)


def test_hausdorff_farthest_point_mid_segment():
    # Q is one long segment plus a short one; P follows it with a bump in
    # the middle of the long segment, far from every vertex of Q
    x = np.linspace(0.0, 10.0, 201)
    P = np.vstack([
        np.stack([x, 0.3 * np.exp(-((x - 5.0) ** 2))], axis=1),
        [[10.0, 0.5], [10.0, 1.0]],
    ])
    Q = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0]])
    assert np.linalg.norm(Q - P[100], axis=1).min() > 4.0
    assert hausdorff(P, Q) == _dense_hausdorff(P, Q)
    assert abs(hausdorff(P, Q) - 0.3) < 1e-12
    assert hausdorff_to_union(P, [Q[:2], Q[1:]]) == _dense_to_union(P, [Q[:2], Q[1:]])


def test_hausdorff_zero_vertex_bound():
    # every point is a vertex of the other curve, so every vertex bound
    # is 0, yet the kernel puts the last vertex an ulp off its segment
    P = np.array([[0.0, 0.0], [0.1, 0.7], [0.1, 0.1]])
    assert _dense_hausdorff(P, P) > 0.0
    assert hausdorff(P, P) == _dense_hausdorff(P, P)
    assert hausdorff_to_union(P, [P]) == _dense_to_union(P, [P])
