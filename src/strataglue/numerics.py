"""Central finite differences, shared by the collar, family and morse
layers."""

import numpy as np


def fd_jacobian(f, x, step, order=2, directions=None):
    """Central finite-difference Jacobian of ``f`` at ``x``.

    Column i differentiates along the i-th column of ``directions``
    (the unit vectors by default).  Columns are stacked on the last
    axis, so a scalar ``f`` gives a gradient.  ``x`` may be a block of
    (..., k) rows when ``f`` maps rows to rows; row i of the result then
    equals the Jacobian at row i bit for bit.  ``order`` is 2 (three-
    point stencil) or 4 (five-point stencil; Fornberg, Math. Comp. 51,
    1988).
    """
    x = np.asarray(x, dtype=float)
    if directions is None:
        directions = np.eye(x.shape[-1])
    cols = []
    for i in range(directions.shape[1]):
        e = directions[:, i] * step
        if order == 4:
            cols.append(
                (f(x - 2 * e) - 8 * f(x - e) + 8 * f(x + e) - f(x + 2 * e)) / (12 * step)
            )
        else:
            cols.append((f(x + e) - f(x - e)) / (2 * step))
    return np.stack(cols, axis=-1)


def _norms(A) -> np.ndarray:
    """Norm of each row, bit for bit ``np.linalg.norm`` of the row alone
    (a dot product, which the ``axis=`` form, a pairwise sum, is not)."""
    A = np.ascontiguousarray(A)
    return np.sqrt(np.vecdot(A, A))


_EPS = np.finfo(float).eps
_BRENT_ITER = 100  # scipy.optimize.brentq's default maxiter


def brentq_rows(f, a, b, xtol, rtol=4 * _EPS):
    """Brent's root of f on [a[i], b[i]] for every row i (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    ``f(x, rows)`` gives, for the integer index array ``rows`` and one
    abscissa per row in ``x``, the values of those rows' functions.
    Each row runs scipy's C ``brentq`` operation for operation, under
    masks, with at most 100 iterations, so root i equals
    ``scipy.optimize.brentq(f_i, a[i], b[i], xtol=xtol, rtol=rtol)``
    bit for bit; ``rtol`` defaults to scipy's 4 EPS.  Like scipy's
    wrapper it raises ``ValueError`` for a NaN value or a bracket whose
    ends have the same sign, and ``RuntimeError`` when a row has not
    converged.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * _EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * _EPS:g})")

    def value(x, rows):
        fx = np.asarray(f(x, rows), dtype=float)
        if np.isnan(fx).any():
            raise ValueError("a function value is NaN; solver cannot continue")
        return fx

    xpre = np.array(a, dtype=float).reshape(-1)
    xcur = np.array(b, dtype=float).reshape(-1)
    rows = np.arange(len(xpre))
    fpre, fcur = value(xpre, rows), value(xcur, rows)
    root = np.where(fpre == 0, xpre, xcur)
    live = (fpre != 0) & (fcur != 0)
    if np.any(np.signbit(fpre[live]) == np.signbit(fcur[live])):
        raise ValueError("f(a) and f(b) must have different signs")
    rows, xpre, xcur, fpre, fcur = rows[live], xpre[live], xcur[live], fpre[live], fcur[live]
    xblk, fblk = np.zeros_like(xpre), np.zeros_like(xpre)
    spre, scur = np.zeros_like(xpre), np.zeros_like(xpre)

    for _ in range(_BRENT_ITER):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (
            np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
            np.where(swap, xcur, xblk),
        )
        fpre, fcur, fblk = (
            np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
            np.where(swap, fcur, fblk),
        )

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[rows[done]] = xcur[done]
        keep = ~done
        rows, xpre, xcur, xblk = rows[keep], xpre[keep], xcur[keep], xblk[keep]
        fpre, fcur, fblk = fpre[keep], fcur[keep], fblk[keep]
        spre, scur, delta, sbis = spre[keep], scur[keep], delta[keep], sbis[keep]
        if not len(rows):
            return root

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # a secant step when the previous point is the bracket's
            # other end, else inverse quadratic extrapolation
            interp = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrap = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interp, extrap)
        bound = 3 * np.abs(sbis) - delta
        bound = np.where(np.abs(spre) < bound, np.abs(spre), bound)  # C's MIN
        short = (
            (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            & (2 * np.abs(stry) < bound)
        )
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = np.where(
            np.abs(scur) > delta, xcur + scur,
            xcur + np.where(sbis > 0, delta, -delta),
        )
        fcur = value(xcur, rows)
    raise RuntimeError(f"Failed to converge after {_BRENT_ITER} iterations")
