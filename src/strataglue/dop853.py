"""Row-batched DOP853: many independent flow lines advanced in lockstep.

The method's coefficients (Hairer, Nørsett & Wanner, *Solving ODEs I*,
§II.10) are written in below as the nonzero ``(j, a)`` terms of each
stage, solution, error and interpolant sum, exact to the last bit of
the float64 values scipy's ``DOP853`` uses.
"""

import numpy as np

from .numerics import brentq_rows


N_STAGES = 12  # K[12] is the field at the step end
N_STAGES_EXTENDED = 16  # three more stages build the interpolant
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0  # the error estimator has order 7
_EPS = np.finfo(float).eps
# accepted row-steps whose 13 stages are held before their interpolants
# are built in one batch: bounds the memory, amortizes the extra stages
_BLOCK = 512

# the solution weights and the two error estimators, over K[0..11]
_B = [
    (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.04471061572777259),
]
_E3 = [
    (0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, -0.4226823213237919),
    (9, -0.1521609496625161), (10, 0.20136540080403034),
    (11, 0.02265179219836082),
]
_E5 = [
    (0, 0.01312004499419488), (5, -1.2251564463762044),
    (6, -0.4957589496572502), (7, 1.6643771824549864),
    (8, -0.35032884874997366), (9, 0.3341791187130175),
    (10, 0.08192320648511571), (11, -0.022355307863886294),
]
# stage s sums the terms _A[s] over K[0..s-1]
_A = [
    [],
    [(0, 0.05260015195876773)],
    [(0, 0.0197250569845379), (1, 0.0591751709536137)],
    [(0, 0.02958758547680685), (2, 0.08876275643042054)],
    [
        (0, 0.2413651341592667), (2, -0.8845494793282861),
        (3, 0.924834003261792),
    ],
    [
        (0, 0.037037037037037035), (3, 0.17082860872947386),
        (4, 0.12546768756682242),
    ],
    [
        (0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
        (5, -0.017578125),
    ],
    [
        (0, 0.03709200011850479), (3, 0.17038392571223998),
        (4, 0.10726203044637328), (5, -0.015319437748624402),
        (6, 0.008273789163814023),
    ],
    [
        (0, 0.6241109587160757), (3, -3.3608926294469414),
        (4, -0.868219346841726), (5, 27.59209969944671),
        (6, 20.154067550477894), (7, -43.48988418106996),
    ],
    [
        (0, 0.47766253643826434), (3, -2.4881146199716677),
        (4, -0.590290826836843), (5, 21.230051448181193),
        (6, 15.279233632882423), (7, -33.28821096898486),
        (8, -0.020331201708508627),
    ],
    [
        (0, -0.9371424300859873), (3, 5.186372428844064),
        (4, 1.0914373489967295), (5, -8.149787010746927),
        (6, -18.52006565999696), (7, 22.739487099350505),
        (8, 2.4936055526796523), (9, -3.0467644718982196),
    ],
    [
        (0, 2.273310147516538), (3, -10.53449546673725),
        (4, -2.0008720582248625), (5, -17.9589318631188),
        (6, 27.94888452941996), (7, -2.8589982771350235),
        (8, -8.87285693353063), (9, 12.360567175794303),
        (10, 0.6433927460157636),
    ],
    _B,  # row 12: the step's weights
    [
        (0, 0.056167502283047954), (6, 0.25350021021662483),
        (7, -0.2462390374708025), (8, -0.12419142326381637),
        (9, 0.15329179827876568), (10, 0.00820105229563469),
        (11, 0.007567897660545699), (12, -0.008298),
    ],
    [
        (0, 0.03183464816350214), (5, 0.028300909672366776),
        (6, 0.053541988307438566), (7, -0.05492374857139099),
        (10, -0.00010834732869724932), (11, 0.0003825710908356584),
        (12, -0.00034046500868740456), (13, 0.1413124436746325),
    ],
    [
        (0, -0.42889630158379194), (5, -4.697621415361164),
        (6, 7.683421196062599), (7, 4.06898981839711), (8, 0.3567271874552811),
        (12, -0.0013990241651590145), (13, 2.9475147891527724),
        (14, -9.15095847217987),
    ],
]
# the interpolant's four higher coefficients, over K[0..15]
_D = [
    [
        (0, -8.428938276109013), (5, 0.5667149535193777),
        (6, -3.0689499459498917), (7, 2.38466765651207),
        (8, 2.117034582445028), (9, -0.871391583777973),
        (10, 2.2404374302607883), (11, 0.6315787787694688),
        (12, -0.08899033645133331), (13, 18.148505520854727),
        (14, -9.194632392478356), (15, -4.436036387594894),
    ],
    [
        (0, 10.427508642579134), (5, 242.28349177525817),
        (6, 165.20045171727028), (7, -374.5467547226902),
        (8, -22.113666853125306), (9, 7.733432668472264),
        (10, -30.674084731089398), (11, -9.332130526430229),
        (12, 15.697238121770845), (13, -31.139403219565178),
        (14, -9.35292435884448), (15, 35.81684148639408),
    ],
    [
        (0, 19.985053242002433), (5, -387.0373087493518),
        (6, -189.17813819516758), (7, 527.8081592054236),
        (8, -11.57390253995963), (9, 6.8812326946963),
        (10, -1.0006050966910838), (11, 0.7777137798053443),
        (12, -2.778205752353508), (13, -60.19669523126412),
        (14, 84.32040550667716), (15, 11.99229113618279),
    ],
    [
        (0, -25.69393346270375), (5, -154.18974869023643),
        (6, -231.5293791760455), (7, 357.6391179106141),
        (8, 93.40532418362432), (9, -37.45832313645163),
        (10, 104.0996495089623), (11, 29.8402934266605),
        (12, -43.53345659001114), (13, 96.32455395918828),
        (14, -39.17726167561544), (15, -149.72683625798564),
    ],
]


def _combine(K, terms):
    """sum of a * K[j] over the terms, one stage at a time.

    Elementwise on purpose: a BLAS dot over the stage axis may order
    its sums differently for different batch shapes, and then a row's
    result would depend on the rows that share its batch.
    """
    (j, a), rest = terms[0], terms[1:]
    acc = a * K[j]
    for j, a in rest:
        acc += a * K[j]
    return acc


def _norm(x):
    return np.sqrt(np.sum(x * x, axis=-1))


def _initial_step(fun, y0, f0, span, rtol, atol):
    """scipy's ``select_initial_step`` (Hairer, Nørsett & Wanner, §II.4)
    on every row."""
    root_dim = y0.shape[-1] ** 0.5
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale) / root_dim
    d1 = _norm(f0 / scale) / root_dim
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, span)
    f1 = fun(y0 + h0[:, None] * f0)
    d2 = _norm((f1 - f0) / scale) / root_dim / h0
    with np.errstate(divide="ignore"):
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** (1 / 8),
        )
    return np.minimum(np.minimum(100 * h0, h1), span)


def _dense(fun, y_old, y_new, K, h):
    """Interpolant coefficients, (m, 7, dim), of m accepted steps.

    ``K`` holds the 13 stages of each step; the three extra stages are
    evaluated here, as scipy does when dense output is asked for.
    """
    K = list(K)
    hc = h[:, None]
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        K.append(fun(y_old + _combine(K, _A[s]) * hc))
    dy = y_new - y_old
    f_old, f_new = K[0], K[N_STAGES]
    F = [dy, hc * f_old - dy, 2 * dy - hc * (f_new + f_old)]
    F += [hc * _combine(K, terms) for terms in _D]
    return np.stack(F, axis=1)


class Dop853Path:
    """Dense output of one integrated row.

    ``t`` holds the start, every step end and the final time (an event
    root, when a terminal event stopped the row).  Calling the path at
    a time gives a (dim,) state, at an array of m times an (m, dim)
    array.  It evaluates the step interpolants the way scipy's
    ``OdeSolution`` does: the step is found by a left-sided search of
    ``t`` and evaluated by Horner's rule in ``x`` and ``1 - x``.
    ``event`` is the index of the terminal event that stopped the row,
    or None.
    """

    def __init__(self, t, t_old, h, y_old, F, event):
        self.t = t
        self.event = event
        self._t_old, self._h, self._y_old, self._F = t_old, h, y_old, F

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        seg = np.searchsorted(self.t, t, side="left") - 1
        seg = np.minimum(np.maximum(seg, 0), len(self._h) - 1)
        x = ((t - self._t_old[seg]) / self._h[seg])[..., None]
        return _horner(self._F[seg], x, self._y_old[seg])


def _horner(F, x, y_old):
    """The DOP853 interpolant at step fractions x: F is (..., 7, dim),
    x broadcasts against (..., dim)."""
    y = np.zeros(F.shape[:-2] + F.shape[-1:])
    for i in range(F.shape[-2]):
        y += F[..., -1 - i, :]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


def dop853_rows(fun, y0, t_span, rtol, atol, events):
    """Integrate dy/dt = fun(y) over ``t_span`` from every row of ``y0``.

    DOP853 (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.10) with
    the step control and event logic of scipy's
    ``solve_ivp(method="DOP853", dense_output=True)``, replicated row
    by row: the initial step, the E3/E5 error norm, safety 0.9, factor
    bounds 0.2 and 10 and no growth right after a rejection, the
    minimum-step test and the last step clipped to the span's end.

    ``fun`` maps (n, dim) rows to their field values, row i depending
    on row i alone.  Each event ``g(Y, F)`` maps rows and their field
    values ``F = fun(Y)`` to one value per row.  Every event is
    terminal with direction -1: when ``g`` goes from >= 0 to <= 0 over
    a step, the row stops after that step.  Its end time, the root on
    that step's interpolant, is found after the lockstep: each event
    runs one ``brentq_rows`` (xtol and rtol 4 EPS) over all the steps
    it stopped, on the interpolants built with every other step.  The
    earliest root wins, and equal roots go to the lower event index.
    The span must run forward.

    Rows advance in lockstep and stopped rows drop out.  Stage sums
    are elementwise, so each row's path equals, bit for bit, the path
    of a batch holding that row alone.  Returns one ``Dop853Path`` per
    row.
    """
    if not len(y0):
        return []
    t0, t_end = map(float, t_span)
    y = np.array(y0, dtype=float)
    n, dim = y.shape
    rows = np.arange(n)
    t = np.full(n, t0)
    f = fun(y)
    g = np.reshape([ev(y, f) for ev in events], (len(events), n))
    h_abs = _initial_step(fun, y, f, t_end - t0, rtol, atol)
    rejected = np.zeros(n, dtype=bool)
    pending = []  # per lockstep: rows, t_old, t_new, h, y_old, y_new, K
    built = []  # rows, t_old, t_new, h, y_old, F of interpolated steps
    ends = {}  # row -> (event index or None, final time)
    hit_rows, hit_masks = [], []  # rows an event stopped, and which events

    while len(rows):
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(~rejected & (h_abs < min_step), min_step, h_abs)
        stop = h_abs < min_step
        for r, tr in zip(rows[stop], t[stop]):
            ends[r] = (None, tr)
        t_new = np.minimum(t + h_abs, t_end)
        h = t_new - t
        h_abs = np.abs(h)
        hc = h[:, None]
        K = np.empty((N_STAGES + 1,) + y.shape)
        K[0] = f
        for s in range(1, N_STAGES):
            K[s] = fun(y + _combine(K, _A[s]) * hc)
        y_new = y + hc * _combine(K, _B)
        f_new = K[N_STAGES] = fun(y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        n5 = _norm(_combine(K, _E5) / scale) ** 2
        n3 = _norm(_combine(K, _E3) / scale) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(
                (n5 == 0) & (n3 == 0), 0.0,
                h_abs * n5 / np.sqrt((n5 + 0.01 * n3) * dim),
            )
            growth = _SAFETY * err ** _EXPONENT
        accept = (err < 1) & ~stop
        factor = np.where(err == 0, _MAX_FACTOR, np.minimum(_MAX_FACTOR, growth))
        factor = np.where(rejected, np.minimum(1.0, factor), factor)
        h_abs = np.where(
            accept, h_abs * factor, h_abs * np.fmax(_MIN_FACTOR, growth)
        )
        rejected = ~accept

        a = np.flatnonzero(accept)
        step = (rows[a], t[a], t_new[a], h[a], y[a], y_new[a], K[:, a])
        pending.append(step)
        if sum(len(p[0]) for p in pending) >= _BLOCK:
            built.append(_interpolants(fun, pending))
            pending = []
        t[a], y[a], f[a] = t_new[a], y_new[a], f_new[a]
        g_new = np.reshape(
            [ev(y[a], f[a]) for ev in events], (len(events), len(a))
        )
        hits = (g[:, a] >= 0) & (g_new <= 0)
        g[:, a] = g_new
        hit = np.flatnonzero(hits.any(axis=0))
        # the row stops now; its root is found after the lockstep
        hit_rows.append(rows[a[hit]])
        hit_masks.append(hits[:, hit])
        stop[a[hit]] = True
        done = accept & ~stop & (t >= t_end)
        for r in rows[done]:
            ends[r] = (None, t_end)
        keep = ~(stop | done)
        rows, t, y, f, g = rows[keep], t[keep], y[keep], f[keep], g[:, keep]
        h_abs, rejected = h_abs[keep], rejected[keep]

    if pending:
        built.append(_interpolants(fun, pending))
    steps = [np.concatenate(part) for part in zip(*built)]
    del built, pending  # the blocks, before the rows take their copies
    # a stable sort keeps each row's steps in time order
    order = np.argsort(steps[0], kind="stable")
    counts = np.bincount(steps[0], minlength=n)
    stopped = np.concatenate(hit_rows)
    if len(stopped):
        # an event stopped each of these rows on its last step
        last = order[np.cumsum(counts)[stopped] - 1]
        roots, which = _event_roots(
            fun, events, [part[last] for part in steps[1:]],
            np.concatenate(hit_masks, axis=1),
        )
        for r, e, root in zip(stopped, which, roots):
            ends[r] = (int(e), root)
    return _paths(t0, steps, order, counts, ends)


def _event_roots(fun, events, steps, hits):
    """The earliest event root on each of m steps, and its event.

    ``steps`` holds the steps' t_old, t_new, h, y_old and interpolants;
    ``hits[e, k]`` says that event e changed sign on step k.  Each event
    runs one ``brentq_rows`` (xtol and rtol 4 EPS) over the steps it
    hit; equal roots go to the lower event index.
    """
    t_old, t_new, h, y_old, F = steps
    roots = np.full(hits.shape, np.inf)
    for e, ev in enumerate(events):
        k = np.flatnonzero(hits[e])
        if not len(k):
            continue

        def gap(s, i):
            j = k[i]
            Y = _horner(F[j], ((s - t_old[j]) / h[j])[:, None], y_old[j])
            return ev(Y, fun(Y))

        roots[e, k] = brentq_rows(gap, t_old[k], t_new[k], 4 * _EPS, 4 * _EPS)
    which = np.argmin(roots, axis=0)  # the first of equal minima
    return roots[which, np.arange(hits.shape[1])], which


def _interpolants(fun, steps):
    """Replace the stages of the recorded steps by their interpolants."""
    parts = list(zip(*steps))
    rows, t_old, t_new, h, y_old, y_new = map(np.concatenate, parts[:6])
    F = _dense(fun, y_old, y_new, np.concatenate(parts[6], axis=1), h)
    return rows, t_old, t_new, h, y_old, F


def _paths(t0, steps, order, counts, ends):
    """Split the interpolated steps, ``order`` sorting them by row, into
    one ``Dop853Path`` per row."""
    _, t_old, t_new, h, y_old, F = steps
    paths = []
    for r, idx in enumerate(np.split(order, np.cumsum(counts)[:-1])):
        event, t_final = ends[r]
        ts = np.concatenate([[t0], t_new[idx]])
        ts[-1] = t_final
        paths.append(Dop853Path(ts, t_old[idx], h[idx], y_old[idx], F[idx], event))
    return paths
