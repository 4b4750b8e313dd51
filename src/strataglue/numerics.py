"""Central finite differences, shared by the collar, family and morse
layers."""

import numpy as np


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
