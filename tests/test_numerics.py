"""Row-vectorized Brent root finding against scipy's scalar brentq, and
the in-repo DOP853 tableau against scipy's."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

from strataglue import dop853
from strataglue.numerics import brentq_rows

EPS = np.finfo(float).eps


# Smooth functions built from +, -, * and / alone, so that one row's
# value at a float and the rows' values at an array agree bit for bit.
def _cubic(x, r, c):
    d = x - r
    return d * (c + d * d)


def _rational(x, r, c):
    return (x - r) / (1.0 + c * x * x)


def _product(x, r, c):
    return (x - r) * (x - r - 3.0) * (x + c)


_KINDS = [_cubic, _rational, _product]


def _rows_fn(cases):
    kind = np.array([c[0] for c in cases])
    r = np.array([c[1] for c in cases])
    c = np.array([c[2] for c in cases])

    def f(x, rows):
        out = np.empty(len(rows))
        for k, fn in enumerate(_KINDS):
            m = kind[rows] == k
            out[m] = fn(x[m], r[rows][m], c[rows][m])
        return out

    return f


@st.composite
def _case(draw):
    """(kind, root, coefficient, a, b): a bracket around a root, with the
    root at or near an end, exactly at a or b, or inside; tiny or wide."""
    kind = draw(st.integers(0, len(_KINDS) - 1))
    r = draw(st.sampled_from([0.0, 1e-300, 1e-8, 0.37, -1.25, 3.0, 1e6]))
    c = draw(st.sampled_from([0.5, 1.0, 2.0, 7.0]))
    below, above = (
        draw(st.sampled_from([0.0, 1e-300, 1e-15, 4e-16 * abs(r), 1e-9, 1e-3, 0.5, 2.0]))
        for _ in range(2)
    )
    a, b = r - below, r + above
    if draw(st.booleans()):
        a, b = b, a
    return kind, r, c, a, b


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.lists(_case(), min_size=1, max_size=12),
    st.sampled_from([(4 * EPS, 4 * EPS), (1e-12, 1e-12), (1e-12, 4 * EPS), (4 * EPS, 1e-12)]),
)
def test_brentq_rows_equals_scipy(cases, tols):
    xtol, rtol = tols
    want, kept = [], []
    for kind, r, c, a, b in cases:
        try:
            root = brentq(
                lambda x: _KINDS[kind](x, r, c), a, b, xtol=xtol, rtol=rtol
            )
        except ValueError:
            continue  # same signs at both ends; checked below
        want.append(root)
        kept.append((kind, r, c, a, b))
    if len(kept) < len(cases):
        with pytest.raises(ValueError):
            brentq_rows(
                _rows_fn(cases), [c[3] for c in cases], [c[4] for c in cases],
                xtol, rtol,
            )
    if not kept:
        return
    got = brentq_rows(
        _rows_fn(kept), [c[3] for c in kept], [c[4] for c in kept], xtol, rtol
    )
    assert np.array(want).tobytes() == got.tobytes()


def test_brentq_rows_raises_as_scipy():
    same_sign = lambda x, rows: x * x + 1.0
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 2.0)
    with pytest.raises(ValueError, match="different signs"):
        brentq_rows(same_sign, [-1.0], [2.0], 2e-12)

    # NaN at an end, and NaN met inside the bracket
    nan_end = lambda x: np.nan if x > 1.5 else x
    with pytest.raises(ValueError, match="NaN"):
        brentq(nan_end, -1.0, 2.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq_rows(lambda x, rows: np.where(x > 1.5, np.nan, x), [-1.0], [2.0], 2e-12)
    nan_inside = lambda x: np.nan if 0.2 < x < 0.8 else x - 0.5
    with pytest.raises(ValueError, match="NaN"):
        brentq(nan_inside, -1.0, 2.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq_rows(
            lambda x, rows: np.where((0.2 < x) & (x < 0.8), np.nan, x - 0.5),
            [-1.0], [2.0], 2e-12,
        )

    # a jump at 0, where rtol adds nothing: xtol 1e-300 takes about 1000
    # halvings, more than the 100 iterations
    with pytest.raises(RuntimeError):
        brentq(lambda x: -1.0 if x < 0.0 else 1.0, -1.0, 1.0, xtol=1e-300)
    with pytest.raises(RuntimeError):
        brentq_rows(lambda x, rows: np.where(x < 0.0, -1.0, 1.0), [-1.0], [1.0], 1e-300)

    # one bad row fails the batch; the tolerances are checked as scipy does
    with pytest.raises(ValueError, match="different signs"):
        brentq_rows(lambda x, rows: x - rows, [-1.0, 5.0], [2.0, 6.0], 2e-12)
    with pytest.raises(ValueError):
        brentq_rows(lambda x, rows: x, [-1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        brentq_rows(lambda x, rows: x, [-1.0], [1.0], 2e-12, rtol=EPS)


def test_brentq_rows_passes_each_row_its_own_index():
    # rows converge at different iterations; each keeps its own function
    targets = np.array([0.1, -0.7, 2.5, 1e-9])
    f = lambda x, rows: x * x * x - targets[rows]
    got = brentq_rows(f, [-3.0] * 4, [3.0] * 4, 2e-12)
    for i, t in enumerate(targets):
        assert got[i] == brentq(lambda x: x * x * x - t, -3.0, 3.0)
    assert brentq_rows(f, [], [], 2e-12).shape == (0,)


def _dense_terms(rows, shape):
    out = np.zeros(shape)
    for i, terms in enumerate(rows):
        for j, a in terms:
            assert a != 0.0 and out[i, j] == 0.0
            out[i, j] = a
    return out


def test_dop853_tableau_equals_scipy():
    # the written-in coefficients are scipy's float64 values, bit for bit
    ref = dop853_coefficients
    assert (dop853.N_STAGES, dop853.N_STAGES_EXTENDED) == (ref.N_STAGES, ref.N_STAGES_EXTENDED)
    assert len(dop853._A) == ref.A.shape[0] and len(dop853._D) == ref.D.shape[0]
    for ours, want in [
        (dop853._A, ref.A),
        (dop853._D, ref.D),
        ([dop853._B], ref.B[None]),
        ([dop853._E3], ref.E3[None]),
        ([dop853._E5], ref.E5[None]),
    ]:
        assert _dense_terms(ours, want.shape).tobytes() == want.astype(float).tobytes()
