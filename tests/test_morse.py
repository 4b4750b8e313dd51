"""Gradient-flow engine: critical points, trajectories, moduli, gluing."""

import copy
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
from strataglue import morse
from strataglue.dop853 import dop853_rows
from strataglue.morse import (
    _points_to_polyline,
    _stable_space,
    _tangent_basis,
    _unstable_frame,
    hausdorff,
    hausdorff_to_union,
    integrate_flow,
    interval_well,
    parse_expression,
)
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, root

from strataglue.numerics import fd_jacobian


# -- critical points on the torus --------------------------------------


def test_torus_critical_points(torus_analysis):
    crits = torus_analysis.critical_points
    assert [c.id for c in crits] == ["c0", "c1", "c2", "c3"]
    assert [c.index for c in crits] == [2, 1, 1, 0]
    assert all(c.gradient_norm < 1e-8 for c in crits)
    assert all(c.morse for c in crits)
    values = [c.value for c in crits]
    assert values == sorted(values, reverse=True)


def _custom_double():
    return system_from_expression(
        "x**3/3 - x + 1.3*(y**3/3 - y)", 2, box=[[-2.5, 2.5], [-2.5, 2.5]]
    )


def _scipy_critical_points(system):
    """Oracle: one scipy ``root`` (hybr) per default seed, on the
    gradient (its tangential part and |u|^2 - 1 on the sphere), indexed
    by the eigenvalues of the symmetrized chart Hessian (a second
    difference of f in a tangent chart on the sphere).  Returns
    (location, gradient norm, Hessian eigenvalues) by falling f."""

    def objective(u):
        g = system.grad(u)
        if system.on_sphere:
            tang = g - np.dot(g, u) * u / max(np.dot(u, u), 1e-12)
            return np.concatenate([tang[:2], [np.dot(u, u) - 1.0]])
        return g

    def sphere_hessian(u, h=1e-4):
        basis = _tangent_basis(u)

        def F(a, b):
            x = u + a * basis[:, 0] + b * basis[:, 1]
            return system.f(x / np.linalg.norm(x))

        f0 = F(0.0, 0.0)
        H = np.empty((2, 2))
        H[0, 0] = (F(h, 0) - 2 * f0 + F(-h, 0)) / h**2
        H[1, 1] = (F(0, h) - 2 * f0 + F(0, -h)) / h**2
        H[0, 1] = H[1, 0] = (F(h, h) - F(h, -h) - F(-h, h) + F(-h, -h)) / (4 * h**2)
        return H

    found = []
    for seed in system.default_seeds():
        sol = root(objective, np.asarray(seed, float), tol=1e-12)
        if not sol.success:
            continue
        u = sol.x / np.linalg.norm(sol.x) if system.on_sphere else sol.x
        u = system.wrap(u)
        if not system.in_box(u, margin=1e-9):
            continue
        g = system.grad(u)
        if system.on_sphere:
            g = g - np.dot(g, u) * u
        if np.linalg.norm(g) > 1e-8:
            continue
        E = system.embed([u])[0]
        if any(np.linalg.norm(E - system.embed([v])[0]) < 1e-6 for v, _, _ in found):
            continue
        if system.on_sphere:
            hess = sphere_hessian(u)
        else:
            hess = fd_jacobian(system.grad, u, 1e-5)
            hess = 0.5 * (hess + hess.T)
        found.append((u, float(np.linalg.norm(g)), np.linalg.eigvalsh(hess)))
    found.sort(key=lambda item: -system.f(item[0]))
    return found


@pytest.mark.parametrize(
    "make, tol",
    [(tilted_torus, 1e-12), (round_sphere, 1e-12), (double_system, 1e-12),
     (interval_well, 1e-12), (_custom_double, 1e-9)],
    ids=["torus", "sphere", "double", "well", "custom"],
)
def test_critical_points_match_scipy_root_oracle(make, tol):
    system = make()
    crits = find_critical_points(system)
    want = _scipy_critical_points(system)
    assert [c.id for c in crits] == [f"c{k}" for k in range(len(want))]
    tangent = system.dim - 1 if system.on_sphere else system.dim
    for c, (u, gnorm, eig) in zip(crits, want):
        assert c.index == int(np.sum(eig < 0))
        assert c.morse == bool(np.min(np.abs(eig)) > 1e-6)
        assert abs(c.value - system.f(u)) < 1e-12
        assert np.max(np.abs(c.location - u)) < tol
        assert abs(c.gradient_norm - gnorm) < tol
        # the unstable frame and the stable space: orthonormal columns,
        # index and tangent dim - index of them, spanning the tangent space
        up, down = _unstable_frame(system, c), _stable_space(system, c)
        assert up.shape == (system.dim, c.index)
        assert down.shape == (system.dim, tangent - c.index)
        for frame in (up, down):
            assert np.allclose(frame.T @ frame, np.eye(frame.shape[1]), rtol=0, atol=1e-12)
        both = np.hstack([up, down])
        if system.on_sphere:
            assert np.all(np.abs(both.T @ c.location) < 1e-12)
        assert np.linalg.svd(both, compute_uv=False)[-1] > 1e-3


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
        lambda t: system.f(seg.sol(t)) - mid,
        seg.times[k - 1], seg.times[k], xtol=1e-12,
    )
    anchor = seg.sol(t_mid)
    assert system.distance(anchor, traj.anchor) < 1e-6


def test_torus_special_angles_pinned(torus_analysis):
    # the shooting angles of the isolated trajectories out of c0, as the
    # scipy-driven sweep found them before the row-batched integrator
    pinned = {
        ("c0", "c1"): [3.571577341960839e-13, 3.141592653589436],
        ("c0", "c2"): [0.1140499830285076, 6.169135323993213],
    }
    for pair, angles in pinned.items():
        got = [t.angle for t in torus_analysis.pairs[pair].trajectories]
        assert len(got) == len(angles)
        assert max(abs(a - b) for a, b in zip(got, angles)) < 1e-8, (pair, got)


# -- the row-batched flow engine ----------------------------------------


@pytest.mark.parametrize(
    "make",
    [tilted_torus, round_sphere, double_system, interval_well, _custom_double],
    ids=["torus", "sphere", "double", "well", "custom"],
)
def test_stacked_fields_match_per_row(make, rng):
    system = make()
    X = rng.uniform(-1.5, 1.5, size=(9, system.dim))
    if system.on_sphere:
        # off the unit sphere too, where the radius term is nonzero
        X *= rng.uniform(0.8, 1.2, size=(9, 1)) / np.linalg.norm(X, axis=1)[:, None]
    for field in (system.rhs, system.rhs_back):
        stacked = field(X)
        assert stacked.shape == X.shape
        for x, row in zip(X, stacked):
            assert field(x).tobytes() == row.tobytes()
        assert field(X.reshape(3, 3, -1)).tobytes() == stacked.tobytes()
    values = system.f(X)
    assert values.shape == X.shape[:-1]
    for x, value in zip(X, values):
        one = system.f(x)
        assert isinstance(one, float)
        assert np.float64(one).tobytes() == value.tobytes()
    assert system.f(X.reshape(3, 3, -1)).tobytes() == values.tobytes()


def _reference_torus(tilt=0.1, swirl=0.7, R=2.0, r=1.0):
    """tilted_torus's grad and metric_inv as first written: one numpy
    temporary per operation, columns stacked at the end."""
    e = np.array([
        math.cos(tilt), math.sin(tilt) * math.cos(swirl),
        math.sin(tilt) * math.sin(swirl),
    ])

    def grad(u):
        th, ph = u[..., 0], u[..., 1]
        ct, st = np.cos(th), np.sin(th)
        cp, sp = np.cos(ph), np.sin(ph)
        w = R + r * ct
        df_dth = -r * st * (e[0] * cp + e[1] * sp) + e[2] * r * ct
        df_dph = w * (-e[0] * sp + e[1] * cp)
        return np.stack([df_dth, df_dph], axis=-1)

    def metric_inv(u):
        w = R + r * np.cos(u[..., 0])
        return np.stack([np.full(w.shape, 1.0 / (r * r)), 1.0 / (w * w)], axis=-1)

    return grad, metric_inv


def _reference_double_grad(u, weight=1.3):
    dh = lambda t: t * t - 1.0
    return np.stack([dh(u[..., 0]), weight * dh(u[..., 1])], axis=-1)


@pytest.mark.parametrize("shape", [(2,), (1, 2), (9, 2), (4, 3, 2)])
def test_builtin_fields_equal_reference_formulas(shape, rng):
    torus, double = tilted_torus(), double_system()
    grad, metric_inv = _reference_torus()
    U = rng.uniform(-10.0, 10.0, size=shape)
    assert torus.grad(U).tobytes() == grad(U).tobytes()
    assert torus._metric_inv(U).tobytes() == metric_inv(U).tobytes()
    assert double.grad(U).tobytes() == _reference_double_grad(U).tobytes()


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_wrap_reduces_every_row(rows, rng):
    system = tilted_torus()
    U = np.vstack([[7.0, 7.0], rng.uniform(-20.0, 20.0, size=(rows - 1, 2))])
    wrapped = system.wrap(U)
    assert wrapped.tobytes() == np.array([system.wrap(u) for u in U]).tobytes()
    assert np.all((wrapped >= 0.0) & (wrapped < 2 * math.pi))


def _scipy_flow(system, x):
    """integrate_flow's contract, as solve_ivp(DOP853) computes it."""

    def speed(t, u):
        return float(np.linalg.norm(system.rhs(u))) - 1e-7

    events = [speed]
    if system.box is not None:
        lo, hi = system.box

        def box(t, u):
            return float(np.min(np.minimum(u - lo, hi - u))) + 1e-9

        events.append(box)
    for event in events:
        event.terminal = True
        event.direction = -1
    sol = solve_ivp(
        lambda t, u: system.rhs(u), (0.0, 400.0), np.asarray(x, float),
        method="DOP853", rtol=1e-10, atol=1e-12, events=events,
        dense_output=True,
    )
    if sol.t_events[0].size:
        return "converged", sol
    if len(events) > 1 and sol.t_events[1].size:
        return "exited", sol
    return "time", sol


@pytest.mark.parametrize(
    "make, x, status",
    [
        (tilted_torus, [1.0, 2.0], "converged"),
        (round_sphere, [0.6, 0.0, 0.8], "converged"),
        (interval_well, [0.7], "converged"),
        (double_system, [-1.5, 0.3], "exited"),
    ],
    ids=["torus", "sphere", "well", "double-exit"],
)
def test_flow_matches_scipy_dop853(make, x, status):
    system = make()
    seg = integrate_flow(system, x)
    want, sol = _scipy_flow(system, x)
    assert seg.status == want == status
    # The stop time is ill-conditioned: near a sink the speed decays
    # like exp(-lambda t), so an ulp of state error moves the 1e-7
    # crossing by about 1e-15 / (lambda |u - c|).  The error estimate
    # is a cancelling sum whose rounding differs from scipy's BLAS
    # order, so the step sequences part at about 1e-7 relative, and
    # torus stop times differ by up to a few 1e-8 while sampled states
    # agree to about 1e-12.
    assert abs(seg.times[-1] - sol.t[-1]) <= 1e-9 * sol.t[-1]
    assert np.abs(seg.states - sol.sol(seg.times).T).max() < 1e-10


def test_batched_rows_equal_single_runs():
    # converged, exited and timed-out rows, each stopping at its own time
    system = double_system()
    X = np.array([
        [1 + 1e-6, 1 - 1e-6], [-1.5, 0.3], [0.1, -0.2],
        [1 + 1e-4, 1 + 2e-4], [2.0, 1.2], [-1.2, 0.5],
    ])
    span = (0.0, 6.0)
    batch = integrate_flow(system, X, span)
    assert {seg.status for seg in batch} == {"converged", "exited", "time"}
    assert len({seg.times[-1] for seg in batch}) > 3
    for x, seg in zip(X, batch):
        one = integrate_flow(system, x, t_span=span)
        assert one.status == seg.status
        assert one.sol.t.tobytes() == seg.sol.t.tobytes()
        assert one.times.tobytes() == seg.times.tobytes()
        assert one.states.tobytes() == seg.states.tobytes()


def test_level_crossings_equal_scalar_brentq(torus_analysis, monkeypatch):
    # the brackets of one torus _classify batch, plus a bracket whose ends
    # are on one side of the level and one with an exact zero at an end
    analysis = torus_analysis
    system = analysis.system
    p = analysis.by_id["c0"]
    sweep = analysis._sweep(p)
    level = sweep["level"]
    X = analysis._launch(p, sweep["frame"], sweep["angles"])
    segs = integrate_flow(system, X, rtol=1e-8, atol=1e-10, samples=200)
    rows = []  # path, lo, hi, level, fallback
    for seg in segs:
        k = int(np.searchsorted(-system.f(seg.states), -level))
        if 0 < k < len(seg.states):
            rows.append((seg.sol, seg.times[k - 1], seg.times[k], level, seg.states[k]))
    assert len(rows) > 40
    seg = segs[0]
    # f falls along the shot, so both ends are above this level
    below = system.f(seg.states[-1]) - 1.0
    rows.append((seg.sol, seg.times[0], seg.times[1], below, seg.states[5]))
    t = seg.times[3]
    rows.append((seg.sol, seg.times[2], t, system.f(seg.sol(t)), seg.states[0]))
    paths, lo, hi, levels, fallback = map(list, zip(*rows))
    got = morse._level_crossings(system, paths, lo, hi, levels, fallback)
    assert got.shape == (len(rows), system.dim)
    fell_back = 0
    for (path, a, b, value, back), point in zip(rows, got):
        try:
            root = brentq(lambda t: system.f(path(t)) - value, a, b, xtol=1e-12)
            want = path(root)
        except ValueError:
            fell_back += 1
            want = back
        assert point.tobytes() == want.tobytes()
    assert fell_back == 1
    assert got[-1].tobytes() == seg.sol(t).tobytes()
    # one brentq_rows call for the launch points and one for the
    # crossings of a whole batch
    calls, brentq_rows = [], morse.brentq_rows

    def counted(f, a, b, **kwargs):
        calls.append(len(a))
        return brentq_rows(f, a, b, **kwargs)

    monkeypatch.setattr(morse, "brentq_rows", counted)
    analysis._classify(p, sweep["frame"], sweep["angles"], level)
    assert len(calls) == 2
    calls.clear()
    analysis._shot_trajectory(p, analysis.by_id["c3"], sweep["angles"][:7])
    assert len(calls) == 2 and calls[0] == 7


def _riccati(Y):
    # x' = 1 + x^2 / 4, so x(t) = 2 tan(t / 2); columns 1 and 2 carry
    # the row's two event thresholds and stay put
    F = np.zeros_like(Y)
    F[:, 0] = 1.0 + 0.25 * Y[:, 0] * Y[:, 0]
    return F


def test_dop853_rows_two_events_in_one_step():
    # event e fires when x falls to threshold e, at t = 2 atan(c / 2)
    events = [lambda Y, F: Y[:, 1] - Y[:, 0], lambda Y, F: Y[:, 2] - Y[:, 0]]
    Y0 = np.array([
        [0.0, 1.0 + 1e-9, 1.0],  # event 1 is earlier
        [0.0, 1.0, 1.0 + 1e-9],  # event 0 is earlier
        [0.0, 1.0, 1.0],  # equal roots: the lower index
        [0.0, 9.0, 9.0],  # neither fires before the span ends
    ])
    span, rtol, atol = (0.0, 1.5), 1e-10, 1e-12
    paths = dop853_rows(_riccati, Y0, span, rtol, atol, events)
    assert [path.event for path in paths] == [1, 0, 0, None]
    for path, y0 in zip(paths[:3], Y0):
        # both thresholds are crossed inside the last step
        step_lo = path._t_old[-1]
        step_hi = step_lo + path._h[-1]
        for c in y0[1:]:
            assert step_lo < 2 * math.atan(c / 2) < step_hi
    for path, y0 in zip(paths, Y0):
        one = dop853_rows(_riccati, y0[None], span, rtol, atol, events)[0]
        assert one.event == path.event
        assert one.t.tobytes() == path.t.tobytes()
        ts = np.linspace(0.0, path.t[-1], 50)
        assert one(ts).tobytes() == path(ts).tobytes()

        oracle = []
        for e in range(2):
            def g(t, y, e=e):
                return events[e](y[None], None)[0]
            g.terminal, g.direction = True, -1
            oracle.append(g)
        sol = solve_ivp(
            lambda t, y: _riccati(y[None])[0], span, y0, method="DOP853",
            rtol=rtol, atol=atol, events=oracle,
        )
        fired = [e for e in range(2) if sol.t_events[e].size]
        assert fired == ([] if path.event is None else [path.event])
        assert abs(path.t[-1] - sol.t[-1]) <= 1e-9 * sol.t[-1]


def _scalar_launch(analysis, p, frame, angle):
    """One launch point: a bracket grown one step at a time, then scipy's
    brentq on f along the ray (or great circle)."""
    system = analysis.system
    if frame.shape[1] == 1:
        direction = frame[:, 0] * (1.0 if angle < math.pi else -1.0)
    else:
        direction = frame[:, 0] * math.cos(angle) + frame[:, 1] * math.sin(angle)
    level = analysis._launch_level(p)
    if system.on_sphere:
        base = p.location / np.linalg.norm(p.location)
        direction = direction - np.dot(direction, base) * base
        direction /= np.linalg.norm(direction)
        curve = lambda s: np.cos(s) * base + np.sin(s) * direction
    else:
        curve = lambda s: p.location + s * direction
    s_lo, s_hi = 1e-9, 1e-3
    while system.f(curve(s_hi)) > level:
        s_lo = s_hi
        s_hi *= 1.5
    return curve(brentq(lambda s: system.f(curve(s)) - level, s_lo, s_hi, xtol=1e-14))


@pytest.mark.parametrize("name", ["torus_analysis", "sphere_analysis", "double_analysis"])
def test_stacked_launch_points_match_one_angle_launches(name, request):
    analysis = request.getfixturevalue(name)
    p = next(c for c in analysis.critical_points if c.index == 2)
    frame = _unstable_frame(analysis.system, p)
    angles = np.concatenate([np.arange(24) / 24 * 2 * math.pi, [1e-13, 3.0, 6.28]])
    X = analysis._launch(p, frame, angles)
    assert X.shape == (len(angles), analysis.system.dim)
    for angle, x in zip(angles, X):
        assert analysis._launch(p, frame, [angle])[0].tobytes() == x.tobytes()
        assert _scalar_launch(analysis, p, frame, angle).tobytes() == x.tobytes()


def test_speculative_bisection_is_exact(double_analysis, monkeypatch):
    # one round per batch is the plain sequential bisection
    monkeypatch.setattr(morse, "_LOOKAHEAD", 1)
    sequential = analyze(double_system())
    assert double_analysis._sweeps.keys() == sequential._sweeps.keys()
    for pid, ahead in double_analysis._sweeps.items():
        one = sequential._sweeps[pid]
        assert ahead["candidates"]
        for c3, c1 in zip(ahead["candidates"], one["candidates"], strict=True):
            assert c3[:2] == c1[:2]
            for m3, m1 in zip(c3[2:], c1[2:]):
                assert m3[0] == m1[0] and m3[1].tobytes() == m1[1].tobytes()
        for m3, m1 in zip(ahead["marks"], one["marks"], strict=True):
            assert m3[0] == m1[0] and m3[1].tobytes() == m1[1].tobytes()
        assert [s["angle"] for s in ahead["special"]] == [s["angle"] for s in one["special"]]
        for s3, s1 in zip(ahead["special"], one["special"]):
            assert s3["trajectory"].states.tobytes() == s1["trajectory"].states.tobytes()


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


@pytest.fixture(scope="module")
def sphere_analysis():
    return analyze(round_sphere())


def test_sphere_circle_moduli(sphere_analysis):
    analysis = sphere_analysis
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


# -- transversality ------------------------------------------------------

# (expected dim, observed dim, min_angle) per pair.  Every angle is
# arcsin(s) with s one or two ulps below 1, where one ulp of s moves the
# angle by 1.5e-8: (c1,c3)'s pi/2 - 2.98e-8 on the torus is that rounding,
# so the angles are pinned to 1e-7
_TRANSVERSALITY = {
    "torus_analysis": {
        ("c0", "c1"): (0, 0, math.pi / 2),
        ("c0", "c2"): (0, 0, math.pi / 2),
        ("c0", "c3"): (1, 1, None),
        ("c1", "c3"): (0, 0, 1.5707962969925742),
        ("c2", "c3"): (0, 0, math.pi / 2),
    },
    "double_analysis": {
        ("c0", "c1"): (0, 0, math.pi / 2),
        ("c0", "c2"): (0, 0, math.pi / 2),
        ("c0", "c3"): (1, 1, None),
        ("c1", "c3"): (0, 0, math.pi / 2),
        ("c2", "c3"): (0, 0, math.pi / 2),
    },
}


@pytest.mark.parametrize("name", sorted(_TRANSVERSALITY))
def test_transversality_reports_pinned(name, request, monkeypatch):
    # a copy with no cached angles, so the check transports the frames
    analysis = copy.copy(request.getfixturevalue(name))
    analysis._angles = None

    def no_solve_ivp(*args, **kwargs):
        raise AssertionError("check_transversality called solve_ivp")

    monkeypatch.setattr(morse, "solve_ivp", no_solve_ivp)
    pinned = _TRANSVERSALITY[name]
    assert sorted(analysis.pairs) == sorted(pinned)
    for (p, q), (expected_dim, observed_dim, angle) in pinned.items():
        report = morse.check_transversality(analysis.system, p, q, analysis=analysis)
        assert report["expected_dim"] == expected_dim
        assert report["observed_dim"] == observed_dim
        assert report["dimension_match"]
        if angle is None:
            assert report["min_angle"] is None
            assert "transversal" not in report
        else:
            assert abs(report["min_angle"] - angle) <= 1e-7
            assert report["transversal"] is True
    assert analysis._angles is not None


def test_saddle_connection_rejected():
    # untilted, the saddles c1 and c2 are joined by flow lines, so the
    # arcs of (c0,c3) break at c1 where (c1,c3) has no trajectory
    with pytest.raises(InputError, match=r"\(c0,c3\) breaks at c1 .*\(c1,c3\).*Morse-Smale"):
        analyze(tilted_torus(tilt=0.0))


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


@pytest.mark.parametrize("shape", [(11, 2), (3, 3, 2)])
def test_compiled_expression_takes_rows(shape, rng):
    fn = parse_expression("sin(x) + 2*y**2 - exp(-x) + cos(x*y)/3 - y**3", ["x", "y"])
    U = rng.uniform(-3.0, 3.0, size=shape)
    values = fn(U)
    assert values.shape == shape[:-1]
    for idx in np.ndindex(*shape[:-1]):
        assert np.float64(fn(U[idx])).tobytes() == values[idx].tobytes()
    assert fn(U.tolist()).tobytes() == values.tobytes()
    # a constant expression still gives one value per row
    constant = parse_expression("2.5 * 2", ["x", "y"])(U)
    assert constant.tobytes() == np.full(shape[:-1], 5.0).tobytes()


def test_custom_double_matches_builtin(double_analysis):
    # the built-in double as a custom expression: same indices, counts
    # and arc matching, arc lengths to 1e-3
    custom = analyze(_custom_double())
    assert [c.index for c in custom.critical_points] == [
        c.index for c in double_analysis.critical_points
    ]
    assert sorted(custom.pairs) == sorted(double_analysis.pairs)
    for pair, want in double_analysis.pairs.items():
        got = custom.pairs[pair]
        assert (got.dim, len(got.trajectories), len(got.arcs)) == (
            want.dim, len(want.trajectories), len(want.arcs)
        )
        for a, b in zip(got.arcs, want.arcs):
            assert [(e.junction, e.left_index, e.right_index) for e in a.ends] == [
                (e.junction, e.left_index, e.right_index) for e in b.ends
            ]
            assert abs(a.length - b.length) < 1e-3
    assert len(custom.pairs[("c0", "c3")].arcs) == 1


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
    U = rng.uniform(-1, 1, size=(20, 2))
    assert a.f(U).tobytes() == b.f(U).tobytes()
    assert a.grad(U).tobytes() == b.grad(U).tobytes()


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


def test_hausdorff_equals_dense_pass_on_end_table_shots(torus_analysis):
    # consecutive end-table shots of every torus arc, at its low end on
    # even arcs and its high end on odd ones: curves whose segments run
    # from far below 1e-4 to above 0.1, the case the segment bound targets
    analysis = torus_analysis
    p, q = analysis.by_id["c0"], analysis.by_id["c3"]
    steps = []
    for i, arc in enumerate(analysis.pairs[("c0", "c3")].arcs):
        offsets = morse._end_offsets(arc)
        angles = arc.angle_hi - offsets if i % 2 else arc.angle_lo + offsets
        shots = analysis._shot_trajectory(p, q, angles, samples=300)
        for a, b in zip(shots, shots[1:]):
            assert hausdorff(a.points, b.points) == _dense_hausdorff(a.points, b.points)
        steps.append(np.linalg.norm(np.diff(shots[0].points, axis=0), axis=1))
    steps = np.concatenate(steps)
    assert steps.min() < 1e-4 and steps.max() > 0.1


# the nearest-vertex bound: cases where a rounded argmin could go wrong


def _helix(n, turns=3.0):
    s = np.linspace(0.0, 1.0, n)
    return np.stack([np.cos(2 * np.pi * turns * s), np.sin(2 * np.pi * turns * s), s], axis=1)


def test_hausdorff_identical_curves_take_the_zero_bound(monkeypatch):
    # every point but the last is the start of a segment of the other
    # copy, so its bound is 0 and only the chunk holding the last point
    # is measured in each direction
    P = _helix(500)
    want, want_union = _dense_hausdorff(P, P), _dense_to_union(P, [P])
    calls, kernel = [], morse._points_to_polyline
    monkeypatch.setattr(
        morse, "_points_to_polyline", lambda A, B: calls.append(len(A)) or kernel(A, B)
    )
    assert hausdorff(P, P.copy()) == want
    assert calls == [morse._CHUNK, morse._CHUNK]
    assert hausdorff_to_union(P, [P.copy()]) == want_union


def test_hausdorff_curve_through_vertices_of_the_other():
    # every third vertex of P is a vertex of Q, the rest lie just off Q
    Q = _helix(301)
    P = Q + 1e-6 * np.random.default_rng(0).normal(size=Q.shape)
    P[::3] = Q[::3]
    for a, b in [(P, Q), (Q, P), (P[::2], Q), (Q, P[1::2])]:
        assert hausdorff(a, b) == _dense_hausdorff(a, b)
    parts = [Q[:120], Q[119:250], Q[249:]]
    assert hausdorff_to_union(P, parts) == _dense_to_union(P, parts)


def test_hausdorff_single_point_side():
    Q = _helix(200)
    for point in (Q[:1], Q[57:58], np.array([[0.3, -0.2, 0.5]])):
        assert hausdorff(point, Q) == _dense_hausdorff(point, Q)
        assert hausdorff(Q, point) == _dense_hausdorff(Q, point)
        # hausdorff_to_union takes polylines; a point is a degenerate one
        degenerate = point.repeat(2, axis=0)
        assert hausdorff_to_union(degenerate, [Q]) == _dense_to_union(degenerate, [Q])
        assert hausdorff_to_union(Q, [degenerate]) == _dense_to_union(Q, [degenerate])


@pytest.mark.parametrize("gram", [None, 1, 7, 500])
def test_hausdorff_with_gram_blocks_smaller_than_the_product(gram, monkeypatch):
    # 400 x 300 vertices exceed the default cap; the small caps also force
    # one row per block (1, 7) and a partial last block (500)
    P = _helix(400)
    Q = _helix(300, turns=3.1)[::-1] + 1e-3
    assert len(P) * len(Q) > morse._GRAM
    want, want_union = _dense_hausdorff(P, Q), _dense_to_union(P, [Q[:150], Q[149:]])
    if gram is not None:
        monkeypatch.setattr(morse, "_GRAM", gram)
    assert hausdorff(P, Q) == want
    assert hausdorff_to_union(P, [Q[:150], Q[149:]]) == want_union
