"""Gradient-flow engine: critical points, trajectories, moduli, gluing."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strataglue import (
    CriticalPoint,
    InputError,
    MorseSystem,
    RangeError,
    analyze,
    double_system,
    find_critical_points,
    find_trajectories,
    round_sphere,
    system_from_expression,
    tilted_torus,
)
from strataglue import dop853, morse
from strataglue.dop853 import dop853_rows
from strataglue.errors import NumericalError
from strataglue.family import ArcData, ArcEnd, PairModuli, from_morse, save_family
from strataglue.morse import (
    _points_to_polyline,
    _segment_distances,
    _tangent_basis,
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
        # the unstable frame and the stable space: the QR of the point's
        # linearization, orthonormal columns, index and tangent
        # dim - index of them, spanning the tangent space
        up, down = c.unstable, c.stable
        w, v = morse._linearization(system, c.location)
        assert up.tobytes() == np.linalg.qr(v[:, w > 0])[0].tobytes()
        assert down.tobytes() == np.linalg.qr(v[:, w < 0])[0].tobytes()
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
    data = torus_analysis.pairs[("c0", "c3")]
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


def _mid_level_crossing(system, paths, mid):
    # where f crosses mid along a one-row batch, by scipy's brentq
    times, states = (a[0] for a in paths.sample(400))
    fs = np.array([system.f(u) for u in states])
    k = int(np.searchsorted(-fs, -mid))
    t_mid = brentq(
        lambda t: system.f(paths([t])[0]) - mid,
        times[k - 1], times[k], xtol=1e-12,
    )
    return paths([t_mid])[0]


def test_mid_level_crossing_stable_under_restart(torus_analysis):
    # re-integrating from a point part-way down the same trajectory, with
    # a different stopping threshold, must reproduce its mid-level crossing
    system = torus_analysis.system
    c1 = torus_analysis.by_id["c1"]
    c3 = torus_analysis.by_id["c3"]
    mid = 0.5 * (c1.value + c3.value)
    traj = torus_analysis.pairs[("c1", "c3")].trajectories[0]
    # the reference: c1's descent shot again, whose samples are the
    # trajectory's
    shot = integrate_flow(system, morse._shoot_start(system, c1, traj.angle))
    assert shot.sample(400)[1][0].tobytes() == traj.states[1:-1].tobytes()
    want = _mid_level_crossing(system, shot, mid)
    j = next(
        i for i, u in enumerate(traj.states) if system.f(u) < c1.value - 0.05
        and system.f(u) > mid + 0.05
    )
    paths = integrate_flow(system, traj.states[j], stop_speed=1e-6)
    assert system.distance(_mid_level_crossing(system, paths, mid), want) < 1e-6


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


# a flow line's stopping event, as _scipy_flow names it
_STATUS = {morse._CONVERGED: "converged", morse._EXITED: "exited", None: "time"}


def _row_steps(batch, r):
    """Row r of a ``Dop853Rows`` batch from its step table: the step
    starts then the final time, and the step lengths."""
    a, b = batch._start[r:r + 2]
    return np.append(batch._steps[0][a:b], batch.t_final[r]), batch._steps[1][a:b]


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
    paths = integrate_flow(system, x)
    times, states = (a[0] for a in paths.sample(400))
    want, sol = _scipy_flow(system, x)
    assert _STATUS[paths.event[0]] == want == status
    # The stop time is ill-conditioned: near a sink the speed decays
    # like exp(-lambda t), so an ulp of state error moves the 1e-7
    # crossing by about 1e-15 / (lambda |u - c|).  The error estimate
    # is a cancelling sum whose rounding differs from scipy's BLAS
    # order, so the step sequences part at about 1e-7 relative, and
    # torus stop times differ by up to a few 1e-8 while sampled states
    # agree to about 1e-12.
    assert abs(times[-1] - sol.t[-1]) <= 1e-9 * sol.t[-1]
    assert np.abs(states - sol.sol(times).T).max() < 1e-10


def test_batched_rows_equal_single_runs():
    # converged, exited and timed-out rows, each stopping at its own time
    system = double_system()
    X = np.array([
        [1 + 1e-6, 1 - 1e-6], [-1.5, 0.3], [0.1, -0.2],
        [1 + 1e-4, 1 + 2e-4], [2.0, 1.2], [-1.2, 0.5],
    ])
    span = (0.0, 6.0)
    batch = integrate_flow(system, X, span)
    assert {_STATUS[e] for e in batch.event} == {"converged", "exited", "time"}
    times, states = batch.sample(400)
    assert len({t[-1] for t in times}) > 3
    for r, x in enumerate(X):
        one = integrate_flow(system, x, t_span=span)
        assert one.event == [batch.event[r]]
        assert _row_steps(one, 0)[0].tobytes() == _row_steps(batch, r)[0].tobytes()
        one_times, one_states = one.sample(400)
        assert one_times[0].tobytes() == times[r].tobytes()
        assert one_states[0].tobytes() == states[r].tobytes()


def test_level_crossings_equal_scalar_brentq(torus_analysis, monkeypatch):
    # the brackets of one torus _classify batch, plus a bracket whose ends
    # are on one side of the level and one with an exact zero at an end
    analysis = torus_analysis
    system = analysis.system
    p = analysis.by_id["c0"]
    sweep = analysis._sweep(p)
    level = analysis._sweep_level(p)
    X = analysis._launch(p, sweep["angles"])
    paths = integrate_flow(system, X, rtol=1e-8, atol=1e-10)
    times, states = paths.sample(200)

    def at(r, t):
        return paths([t], [r])[0]

    rows = []  # batch row, lo, hi, level, fallback
    for r, (T, S) in enumerate(zip(times, states)):
        k = int(np.searchsorted(-system.f(S), -level))
        if 0 < k < len(S):
            rows.append((r, T[k - 1], T[k], level, S[k]))
    assert len(rows) > 40
    T, S = times[0], states[0]
    # f falls along the shot, so both ends are above this level
    below = system.f(S[-1]) - 1.0
    rows.append((0, T[0], T[1], below, S[5]))
    t = T[3]
    rows.append((0, T[2], t, system.f(at(0, t)), S[0]))
    index, lo, hi, levels, fallback = map(list, zip(*rows))
    got = morse._level_crossings(system, paths, index, lo, hi, levels, fallback)
    assert got.shape == (len(rows), system.dim)
    fell_back = 0
    for (r, a, b, value, back), point in zip(rows, got):
        try:
            root = brentq(lambda t: system.f(at(r, t)) - value, a, b, xtol=1e-12)
            want = at(r, root)
        except ValueError:
            fell_back += 1
            want = back
        assert point.tobytes() == want.tobytes()
    assert fell_back == 1
    assert got[-1].tobytes() == at(0, t).tobytes()
    # one brentq_rows call for the launch points and one for the
    # crossings of a whole batch
    calls, brentq_rows = [], morse.brentq_rows

    def counted(f, a, b, **kwargs):
        calls.append(len(a))
        return brentq_rows(f, a, b, **kwargs)

    monkeypatch.setattr(morse, "brentq_rows", counted)
    analysis._classify(p, sweep["angles"])
    assert len(calls) == 2
    calls.clear()
    analysis._shot_trajectory(p, analysis.by_id["c3"], sweep["angles"][:7])
    assert calls == [7]


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
    assert paths.event == [1, 0, 0, None]
    for r, y0 in enumerate(Y0[:3]):
        # both thresholds are crossed inside the last step
        t, h = _row_steps(paths, r)
        step_lo = t[-2]
        step_hi = step_lo + h[-1]
        for c in y0[1:]:
            assert step_lo < 2 * math.atan(c / 2) < step_hi
    for r, y0 in enumerate(Y0):
        one = dop853_rows(_riccati, y0[None], span, rtol, atol, events)
        event, t = paths.event[r], _row_steps(paths, r)[0]
        assert one.event == [event]
        assert _row_steps(one, 0)[0].tobytes() == t.tobytes()
        ts = np.linspace(0.0, t[-1], 50)
        assert one(ts[None]).tobytes() == paths(ts[None], [r]).tobytes()

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
        assert fired == ([] if event is None else [event])
        assert abs(t[-1] - sol.t[-1]) <= 1e-9 * sol.t[-1]


@pytest.mark.parametrize("chunk", [None, 7])
def test_dop853_rows_evaluated_rows_first(chunk, monkeypatch):
    # a box exit, a run to the span's end and two slow convergences on
    # the double system: rows of very different step counts
    if chunk is not None:
        monkeypatch.setattr(dop853, "_EVAL", chunk)  # many chunks per call
    system = double_system()
    X = np.array([[-1.5, 0.3], [0.1, -0.2], [1 + 1e-4, 1 + 2e-4], [0.9, 1.2]])
    span = (0.0, 6.0)
    batch = integrate_flow(system, X, span)
    own = [integrate_flow(system, x, t_span=span) for x in X]
    steps = [len(_row_steps(one, 0)[1]) for one in own]
    assert max(steps) > 3 * min(steps)
    assert {one.event[0] for one in own} == {None, 0, 1}
    # per row: the start, every step end, the final time (an event root
    # on stopped rows), the span's end, and times just outside the span
    # and just past the row's final time, cycled to one length
    times = [
        np.concatenate([_row_steps(one, 0)[0], [6.0, -0.5, 6.5, one.t_final[0] + 1e-3]])
        for one in own
    ]
    m = max(len(t) for t in times)
    T = np.array([np.resize(t, m) for t in times])
    got = batch(T)
    assert got.shape == (len(X), m, 2)
    for r, one in enumerate(own):
        assert _row_steps(batch, r)[0].tobytes() == _row_steps(one, 0)[0].tobytes()
        assert got[r].tobytes() == one(T[r:r + 1])[0].tobytes()
    for j in range(m):
        want = np.array([one(T[r:r + 1, j])[0] for r, one in enumerate(own)])
        assert batch(T[:, j]).tobytes() == want.tobytes()
    rows = [2, 0, 2, 3]
    assert batch(T[rows], rows).tobytes() == got[rows].tobytes()
    # sampling: the grid of each row is np.linspace's, whose last time
    # is the end itself (not so by the step sum at 7 and 60 samples)
    for m in (7, 37, 60):
        ts, states = batch.sample(m)
        for r, one in enumerate(own):
            assert ts[r].tobytes() == np.linspace(0.0, one.t_final[0], m).tobytes()
            assert states[r].tobytes() == one(ts[r:r + 1])[0].tobytes()
    # a batch of one row, and an empty batch
    one = own[1]
    assert len(one) == 1 and one(T[1:2]).tobytes() == got[1:2].tobytes()
    empty = dop853_rows(system.rhs, np.empty((0, 2)), span, 1e-10, 1e-12, [])
    assert len(empty) == 0
    assert empty(np.empty(0)).shape == (0, 2)
    assert [a.shape for a in empty.sample(5)] == [(0, 5), (0, 5, 2)]
    assert len(integrate_flow(system, np.empty((0, 2)))) == 0


def _scalar_launch(analysis, p, angle):
    """One launch point: a bracket grown one step at a time, then scipy's
    brentq on f along the ray (or great circle)."""
    system, frame = analysis.system, p.unstable
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
    angles = np.concatenate([np.arange(24) / 24 * 2 * math.pi, [1e-13, 3.0, 6.28]])
    X = analysis._launch(p, angles)
    assert X.shape == (len(angles), analysis.system.dim)
    for angle, x in zip(angles, X):
        assert analysis._launch(p, [angle])[0].tobytes() == x.tobytes()
        assert _scalar_launch(analysis, p, angle).tobytes() == x.tobytes()


def _double3():
    # the built-in double lifted to 3-D by a stable z: each saddle's
    # stable space is a plane, so the sweep of c0 bisects its grid
    def h(t):
        return t ** 3 / 3.0 - t

    return MorseSystem(
        "double3", 3,
        lambda u: h(u[..., 0]) + 1.3 * h(u[..., 1]) + 0.5 * u[..., 2] ** 2,
        grad=lambda u: np.stack(
            [u[..., 0] ** 2 - 1.0, 1.3 * (u[..., 1] ** 2 - 1.0), u[..., 2]], axis=-1
        ),
        box=([-2.5] * 3, [2.5] * 3),
    )


@pytest.fixture(scope="module")
def double3_analysis():
    return analyze(_double3())


def test_double3_lift_matches_builtin(double3_analysis, double_analysis):
    lift = double3_analysis
    assert all(c.stable.shape[1] == 2 for c in lift.critical_points if c.index == 1)
    assert [c.index for c in lift.critical_points] == [2, 1, 1, 0]
    assert sorted(lift.pairs) == sorted(double_analysis.pairs)
    for pair, want in double_analysis.pairs.items():
        got = lift.pairs[pair]
        assert (got.dim, got.count, len(got.arcs)) == (want.dim, want.count, len(want.arcs))
        for a, b in zip(got.arcs, want.arcs):
            assert [e.junction for e in a.ends] == [e.junction for e in b.ends]
            assert abs(a.length - b.length) < 1e-5


def test_speculative_bisection_is_exact(double3_analysis, monkeypatch):
    # one round per batch is the plain sequential bisection
    monkeypatch.setattr(morse, "_LOOKAHEAD", 1)
    sequential = analyze(_double3())
    assert double3_analysis._sweeps.keys() == sequential._sweeps.keys()
    for pid, ahead in double3_analysis._sweeps.items():
        one = sequential._sweeps[pid]
        assert ahead["candidates"]
        for c3, c1 in zip(ahead["candidates"], one["candidates"], strict=True):
            assert c3[:2] == c1[:2]
            for m3, m1 in zip(c3[2:], c1[2:]):
                assert m3[0] == m1[0] and m3[1].tobytes() == m1[1].tobytes()
        for m3, m1 in zip(ahead["marks"], one["marks"], strict=True):
            assert m3[0] == m1[0] and m3[1].tobytes() == m1[1].tobytes()
        assert [s.angle for s in ahead["special"]] == [s.angle for s in one["special"]]
        for s3, s1 in zip(ahead["special"], one["special"]):
            assert s3.states.tobytes() == s1.states.tobytes()


def _oracle_separatrix_angles(analysis, p):
    """scipy's DOP853 on every saddle's two backward stable branches,
    and scipy's brentq for each crossing of p's launch level."""
    system = analysis.system
    level = analysis._launch_level(p)
    speed = lambda t, y: np.linalg.norm(system.rhs_back(y)) - 1e-9
    events = [speed]
    if system.box is not None:
        lo, hi = system.box
        events.append(lambda t, y: np.min(np.minimum(y - lo, hi - y)) + 1e-9)
    for event in events:
        event.terminal, event.direction = True, -1
    angles = []
    for s in analysis.critical_points:
        if s.index != 1:
            continue
        for sign in (1.0, -1.0):
            sol = solve_ivp(
                lambda t, y: system.rhs_back(y), (0.0, 400.0),
                s.location + sign * 1e-5 * s.stable[:, 0], method="DOP853",
                rtol=1e-13, atol=1e-15, dense_output=True, events=events,
            )
            if system.distance(sol.y[:, -1], p.location) > 1e-4:
                continue
            t = brentq(lambda t: system.f(sol.sol(t)) - level, 0.0, sol.t[-1], xtol=1e-14)
            d = sol.sol(t) - p.location
            if system.period:
                d = (d + math.pi) % (2 * math.pi) - math.pi
            a = d @ p.unstable
            angles.append(math.atan2(a[1], a[0]) % (2 * math.pi))
    return sorted(angles)


@pytest.mark.parametrize("name", ["torus_analysis", "double_analysis"])
def test_separatrix_angles_match_scipy_oracle(name, request):
    analysis = request.getfixturevalue(name)
    p = analysis.by_id["c0"]
    got = [s.angle for s in analysis._sweep(p)["special"]]
    want = _oracle_separatrix_angles(analysis, p)
    assert len(got) == len(want) == (4 if name == "torus_analysis" else 2)
    for a, b in zip(got, want):
        assert min(abs(a - b), 2 * math.pi - abs(a - b)) < 1e-10, (got, want)


def test_sweep_jump_without_separatrix_is_a_numerical_error(monkeypatch):
    # drop the first stable branch: its grid jump is left unexplained
    angles = morse.ModuliAnalysis._separatrix_angles
    monkeypatch.setattr(
        morse.ModuliAnalysis, "_separatrix_angles",
        lambda self, p, saddles: angles(self, p, saddles)[1:],
    )
    with pytest.raises(NumericalError, match=r"sweep of c0: grid interval \[.*\] \(crit:"):
        analyze(double_system())


def test_torus_moduli_do_not_depend_on_the_resolution(torus_analysis):
    # at the grid's coarse end the jump test once missed (c0,c2)
    want = torus_analysis.pairs[("c0", "c3")].arcs
    for resolution in (16, 32, 64, 128):
        analysis = (
            torus_analysis if resolution == 64 else analyze(tilted_torus(), resolution)
        )
        assert len(analysis.pairs) == 5
        for (p, q), data in analysis.pairs.items():
            if data.dim == 0:
                assert data.count == 2
        arcs = analysis.pairs[("c0", "c3")].arcs
        assert len(arcs) == 4
        for a, b in zip(arcs, want):
            assert [(e.junction, e.left_index, e.right_index) for e in a.ends] == [
                (e.junction, e.left_index, e.right_index) for e in b.ends
            ]
            assert abs(a.length - b.length) <= 1e-6 * b.length
        # both stable branches of each saddle come from c0, the one source
        for s in ("c1", "c2"):
            assert sum(
                data.count for (p, q), data in analysis.pairs.items() if q == s
            ) == 2


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
    trajs = find_trajectories(torus_analysis, "c1", "c3")
    assert len(trajs) == 2
    reps = find_trajectories(torus_analysis, "c0", "c3")
    assert len(reps) == 5 * len(torus_analysis.pairs[("c0", "c3")].arcs)
    assert find_trajectories(torus_analysis, "c3", "c0") == []


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
    # an equal copy is not one of the analysis's own trajectories
    with pytest.raises(InputError, match="not one of this analysis"):
        torus_analysis.glue(copy.copy(g1), g2, 0.01)
    with pytest.raises(InputError, match="not one of this analysis"):
        torus_analysis.glue(g1, copy.copy(g2), 0.01)


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
    analysis = request.getfixturevalue(name)

    def no_solve_ivp(*args, **kwargs):
        raise AssertionError("check_transversality called solve_ivp")

    monkeypatch.setattr(morse, "solve_ivp", no_solve_ivp)
    pinned = _TRANSVERSALITY[name]
    assert sorted(analysis.pairs) == sorted(pinned)
    reports = morse.check_transversality(analysis)
    for (p, q), (expected_dim, observed_dim, angle) in pinned.items():
        report = reports[(p, q)]
        assert report["expected_dim"] == expected_dim
        assert report["observed_dim"] == observed_dim
        if angle is None:
            assert report["min_angle"] is None
            assert "transversal" not in report
        else:
            assert abs(report["min_angle"] - angle) <= 1e-7
            assert report["transversal"] is True


def test_one_linearization_per_critical_point(monkeypatch):
    # the frames of the sweep, the saddle descents and the transversality
    # check all come from the one linearization find_critical_points takes
    calls, linearization = [], morse._linearization

    def counted(system, u):
        calls.append(u)
        return linearization(system, u)

    monkeypatch.setattr(morse, "_linearization", counted)
    analysis = analyze(tilted_torus())
    morse.check_transversality(analysis)
    assert len(analysis.critical_points) == 4
    assert len(calls) == 4


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


# -- export ------------------------------------------------------------


def _family_via_pair_moduli(analysis):
    # the record-by-record conversion to_family once made, as the oracle
    moduli = {}
    for pair, data in analysis.pairs.items():
        if data.dim == 0:
            moduli[pair] = PairModuli(pair, 0, count=len(data.trajectories))
        elif data.circle is not None:
            moduli[pair] = PairModuli(pair, 1, circle=data.circle)
        else:
            arcs = tuple(
                ArcData(arc.length, tuple(
                    ArcEnd(e.junction, e.left_index, e.right_index) for e in arc.ends
                ))
                for arc in data.arcs
            )
            moduli[pair] = PairModuli(pair, 1, arcs=arcs)
    points = [CriticalPoint(c.id, index=c.index) for c in analysis.critical_points]
    return from_morse(points, analysis.relations(), moduli, name=analysis.system.name)


@pytest.mark.parametrize("name", ["torus_analysis", "double_analysis"])
def test_to_family_equals_pair_moduli_conversion(name, request, tmp_path):
    analysis = request.getfixturevalue(name)
    save_family(analysis.to_family(), tmp_path / "got.json")
    save_family(_family_via_pair_moduli(analysis), tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_to_family_rejects_an_unresolved_arc_end(double_analysis):
    analysis = copy.copy(double_analysis)
    data = analysis.pairs[("c0", "c3")]
    arc = dataclasses.replace(data.arcs[0], ends=(None, data.arcs[0].ends[1]))
    analysis.pairs = {**analysis.pairs, ("c0", "c3"): dataclasses.replace(data, arcs=[arc])}
    with pytest.raises(InputError, match="unresolved end"):
        analysis.to_family()


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
        # what a tree walk could let through
        "x[0]",
        "(x, y)",
        "sin(x, y)",
        "sin(x=1)",
        "sin",
        "sin(*x)",
        "np.sin(x)",
        "+x",
        "~x",
        "not x",
        "x // y",
        "x % y",
        "x @ y",
    ):
        with pytest.raises(InputError):
            parse_expression(bad, ["x", "y"])
    # constants are accepted as isinstance(value, (int, float)) accepts them
    assert parse_expression("x + True", ["x", "y"])([2.0, 0.0]) == 3.0
    # a variable may not shadow a function, nor stand for one
    assert parse_expression("sin(x)", ["x", "sin"])([0.5, 9.0]) == np.sin(0.5)
    with pytest.raises(InputError):
        parse_expression("sin + x", ["x", "sin"])


@pytest.mark.parametrize("text, by_hand", [
    ("x**3/3 - x + 1.3*(y**3/3 - y)", lambda x, y: x**3 / 3 - x + 1.3 * (y**3 / 3 - y)),
    ("sin(x)*exp(-y**2) + cos(x*y)/2",
     lambda x, y: np.sin(x) * np.exp(-y**2) + np.cos(x * y) / 2),
], ids=["cubics", "waves"])
def test_compiled_expression_equals_numpy_by_hand(text, by_hand, rng):
    U = rng.uniform(-3.0, 3.0, size=(200_000, 2))
    got = parse_expression(text, ["x", "y"])(U)
    assert got.tobytes() == by_hand(U[:, 0], U[:, 1]).tobytes()


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


def _dense_polyline(P, Q):
    # the dense pass as first written, kept as the oracle of the library's
    # segment kernel: every point against every segment
    A = Q[:-1]
    B = Q[1:]
    AB = B - A
    denom = np.maximum(np.einsum("ij,ij->i", AB, AB), 1e-30)
    diff = P[:, None, :] - A[None, :, :]
    t = np.clip(np.einsum("pse,se->ps", diff, AB) / denom, 0.0, 1.0)
    proj = A[None, :, :] + t[:, :, None] * AB[None, :, :]
    d = np.linalg.norm(P[:, None, :] - proj, axis=2)
    return d.min(axis=1)


def _dense_hausdorff(P, Q):
    if len(Q) < 2:
        return float(np.linalg.norm(P - Q[0], axis=1).max())
    if len(P) < 2:
        return float(_dense_polyline(Q, P.repeat(2, axis=0)).max())
    return float(max(_dense_polyline(P, Q).max(), _dense_polyline(Q, P).max()))


def _dense_to_union(P, parts):
    to_union = np.min([_dense_polyline(P, Q) for Q in parts], axis=0)
    back = max(_dense_polyline(Q, P).max() for Q in parts)
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
    if len(Q) < min_size:
        # P itself is shorter than min_size
        Q = np.vstack([Q, np.repeat(Q[-1:], min_size - len(Q), axis=0)])
    return Q


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data(), st.integers(1, 3), st.integers(1, 3))
def test_companion_has_min_size_vertices(data, n, min_size):
    P = data.draw(_polyline(2))[:n]
    assert len(data.draw(_companion(P, min_size))) >= min_size


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


@st.composite
def _points_and_curve(draw):
    P = draw(_polyline(draw(st.sampled_from([1, 2, 3])), min_size=2))
    return P, draw(_companion(P, min_size=2))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_points_and_curve())
def test_segment_kernel_equals_dense_oracle(case):
    # the library's dense pass and the segment bound share one kernel,
    # so the dense-pass tests above need this one to mean anything
    P, Q = case
    assert _points_to_polyline(P, Q).tobytes() == _dense_polyline(P, Q).tobytes()
    # row i against segment k[i], as _farthest bounds each point
    k = np.arange(len(P)) % (len(Q) - 1)
    want = [_dense_polyline(P[i:i + 1], Q[j:j + 2])[0] for i, j in enumerate(k)]
    assert _segment_distances(P, Q[k], Q[k + 1]).tobytes() == np.array(want).tobytes()


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
    # even arcs and its high end on odd ones, all in one batch: curves
    # whose segments run from far below 1e-4 to above 0.1, the case the
    # segment bound targets
    analysis = torus_analysis
    p, q = analysis.by_id["c0"], analysis.by_id["c3"]
    arcs = analysis.pairs[("c0", "c3")].arcs
    angles = []
    for i, arc in enumerate(arcs):
        offsets = morse._end_offsets(arc)
        angles.append(arc.angle_hi - offsets if i % 2 else arc.angle_lo + offsets)
    shots = analysis._shot_trajectory(p, q, np.concatenate(angles), samples=300)
    steps = []
    for i in range(len(arcs)):
        curves = shots[i * len(offsets):(i + 1) * len(offsets)]
        for a, b in zip(curves, curves[1:]):
            ab = _dense_polyline(a.points, b.points)
            assert _points_to_polyline(a.points, b.points).tobytes() == ab.tobytes()
            back = _dense_polyline(b.points, a.points)
            assert hausdorff(a.points, b.points) == float(max(ab.max(), back.max()))
        steps.append(np.linalg.norm(np.diff(curves[0].points, axis=0), axis=1))
    steps = np.concatenate(steps)
    assert steps.min() < 1e-4 and steps.max() > 0.1


@pytest.mark.parametrize("name", ["torus_analysis", "double_analysis"])
def test_end_tables_equal_per_arc_shots(name, request):
    # the per-arc oracle: each arc's table shots of both ends in a batch
    # of their own, its probes and midpoints in another, as Trajectories
    analysis = request.getfixturevalue(name)
    p, q = analysis.by_id["c0"], analysis.by_id["c3"]
    for arc in analysis.pairs[("c0", "c3")].arcs:
        offsets = morse._end_offsets(arc)
        angles = np.concatenate([arc.angle_lo + offsets, arc.angle_hi - offsets])
        shots = analysis._shot_trajectory(p, q, angles, samples=300)
        probe = min(1e-6, 1e-3 * (arc.angle_hi - arc.angle_lo))
        probes_mids = analysis._shot_trajectory(p, q, [
            arc.angle_lo + probe, arc.angle_hi - probe,
            arc.angle_lo + offsets[-1], arc.angle_hi - offsets[-1],
        ])
        tables = []
        for side, end in enumerate(arc.ends):
            half = shots[side * len(offsets):(side + 1) * len(offsets)]
            left, right = analysis._broken_parts(p, q, end.junction)
            broken = [left[end.left_index].points, right[end.right_index].points]
            assert end.hausdorff == hausdorff_to_union(probes_mids[side].points, broken)
            lengths = [hausdorff_to_union(half[0].points, broken)]
            for a, b in zip(half, half[1:]):
                lengths.append(lengths[-1] + hausdorff(a.points, b.points))
            tables.append(np.array(lengths))
            assert arc._tables[side][0].tobytes() == offsets.tobytes()
            assert arc._tables[side][1].tobytes() == tables[-1].tobytes()
        mid = hausdorff(probes_mids[2].points, probes_mids[3].points)
        assert arc.length == float(tables[0][-1] + tables[1][-1] + mid)


@pytest.mark.parametrize("name, batches", [("torus_analysis", 4), ("double_analysis", 2)])
def test_arc_ends_shoot_one_batch_pair_per_arc_group(name, batches, request, monkeypatch):
    # one forward and one backward batch per group of whole arcs: the
    # torus's 4 arcs go in _ARC_BATCHES = 2 groups, the double's one arc
    # in one; every row is a probe, a midpoint or a table shot
    assert morse._ARC_BATCHES == 2
    analysis = request.getfixturevalue(name)
    data = analysis.pairs[("c0", "c3")]
    fresh = morse.PairData(data.pair, 1, arcs=[
        morse.ModuliArc(arc.angle_lo, arc.angle_hi, ends=(None, None)) for arc in data.arcs
    ])
    # each arc's two end specials: the sweep's, at its low end and the next
    special = analysis._sweep(analysis.by_id["c0"])["special"]
    at = {a.angle % (2 * math.pi): (a, b) for a, b in zip(special, special[1:] + special[:1])}
    rows = []
    monkeypatch.setattr(
        morse, "dop853_rows",
        lambda fun, y0, *args: rows.append(len(y0)) or dop853_rows(fun, y0, *args),
    )
    analysis._match_arc_ends(
        analysis.by_id["c0"], analysis.by_id["c3"], fresh, [at[arc.angle_lo] for arc in data.arcs]
    )
    assert len(rows) == batches
    assert sum(rows) == 2 * len(data.arcs) * (4 + 2 * len(morse._end_offsets(data.arcs[0])))
    for got, want in zip(fresh.arcs, data.arcs, strict=True):
        assert got.ends == want.ends and got.length == want.length
        for side in (0, 1):
            for a, b in zip(got._tables[side], want._tables[side]):
                assert a.tobytes() == b.tobytes()


def test_saddle_descents_are_one_batch(torus_analysis, monkeypatch):
    # both descents of every index-1 point in one batch, each trajectory
    # bit for bit the per-saddle shots'
    analysis = torus_analysis
    system = analysis.system
    monkeypatch.setattr(analysis, "_descents", None)
    rows = []
    monkeypatch.setattr(
        morse, "dop853_rows",
        lambda fun, y0, *args: rows.append(len(y0)) or dop853_rows(fun, y0, *args),
    )
    for pair in (("c1", "c3"), ("c2", "c3")):
        p, q = analysis.by_id[pair[0]], analysis.by_id[pair[1]]
        got = analysis._saddle_descents(p, q)
        paths = integrate_flow(system, [morse._shoot_start(system, p, a) for a in (0.0, math.pi)])
        want = morse._make_trajectories(system, p, [q, q], *paths.sample(400), (0.0, math.pi))
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert a.angle == b.angle
            assert a.states.tobytes() == b.states.tobytes()
            assert a.times.tobytes() == b.times.tobytes()
    assert rows[0] == 4 and len(rows) == 3  # the batch, then the two oracles


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
