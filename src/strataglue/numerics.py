"""Central finite differences and Newton inversion, shared by the
collar, family and morse layers."""

import numpy as np

from .errors import NumericalError

_MAX_ITER = 60


def fd_jacobian(f, x, step, order=2, directions=None):
    """Central finite-difference Jacobian of ``f`` at ``x``.

    Column i differentiates along the i-th column of ``directions``
    (the unit vectors by default).  Columns are stacked on the last
    axis, so a scalar ``f`` gives a gradient.  ``order`` is 2 (three-
    point stencil) or 4 (five-point stencil; Fornberg, Math. Comp. 51,
    1988).
    """
    x = np.asarray(x, dtype=float)
    if directions is None:
        directions = np.eye(len(x))
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


def newton(resid, z0, tol):
    """Undamped Newton iteration for ``resid(z) = 0`` from ``z0``.

    Each step solves the order-2 finite-difference Jacobian system in
    the least-squares sense.  Returns the first iterate whose largest
    residual component is below ``tol``, as a new array even when that
    is ``z0`` itself.
    """
    z = np.array(z0, dtype=float)
    for _ in range(_MAX_ITER):
        r = resid(z)
        worst = np.max(np.abs(r))
        if worst < tol:
            return z
        z = z - np.linalg.lstsq(fd_jacobian(resid, z, 1e-7), r, rcond=None)[0]
    raise NumericalError(
        f"Newton iteration did not converge in {_MAX_ITER} steps "
        f"(last max residual {worst:.3e})"
    )
