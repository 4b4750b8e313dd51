"""Numerical negative-gradient flow on low-dimensional model systems.

Finds critical points, integrates flow lines, isolates connecting
trajectories by shooting from the unstable sphere of a source point,
assembles the 0/1-dimensional moduli data of each comparable pair
(isolated trajectories, arcs ending in broken trajectories, or closed
circles), measures numerical gluing convergence along arcs, and exports
the result as a stratified family.

Conventions:

* Systems live on a coordinate chart (optionally periodic, optionally a
  bounding box) or on the unit sphere in ambient coordinates.  The flow
  is ``du/dt = -metric_inv(u) grad f(u)`` (projected for the sphere).
* Moduli points are normalized against the time-shift action by their
  anchor: the unique point where f equals the mid-level of the pair.
* One-dimensional moduli are parametrized by shooting angle; their
  gluing parameter is arc length measured in the Hausdorff metric on
  trajectory images, accumulated from the broken boundary point.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, root
from scipy.spatial import cKDTree

from .errors import InputError, RangeError, UnsupportedDimensionError
from .family import ArcData, ArcEnd, PairModuli, StratifiedFamily, from_morse
from .poset import CriticalPoint

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------


class MorseSystem:
    """A gradient-flow system on a chart, box or the unit sphere."""

    def __init__(
        self,
        name: str,
        dim: int,
        f,
        grad=None,
        metric_inv=None,
        embed=None,
        period=None,
        box=None,
        on_sphere: bool = False,
    ):
        self.name = name
        self.dim = dim
        self._f = f
        self._grad = grad
        self._metric_inv = metric_inv
        self._embed = embed
        self.period = tuple(period) if period else None
        self.box = (
            (np.asarray(box[0], float), np.asarray(box[1], float))
            if box
            else None
        )
        self.on_sphere = on_sphere

    # -- scalar field --------------------------------------------------

    def f(self, u) -> float:
        return float(self._f(np.asarray(u, dtype=float)))

    def grad(self, u) -> np.ndarray:
        """Euclidean chart gradient of f (finite differences by default)."""
        u = np.asarray(u, dtype=float)
        if self._grad is not None:
            return np.asarray(self._grad(u), dtype=float)
        h = 1e-6
        out = np.empty(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = h
            out[i] = (self._f(u + e) - self._f(u - e)) / (2 * h)
        return out

    def rhs(self, u) -> np.ndarray:
        """Negative-gradient velocity field in chart coordinates."""
        u = np.asarray(u, dtype=float)
        g = self.grad(u)
        if self.on_sphere:
            v = -(g - np.dot(g, u) * u / np.dot(u, u))
            return v + (1.0 - np.dot(u, u)) * u
        if self._metric_inv is not None:
            return -self._metric_inv(u) * g
        return -g

    def rhs_back(self, u) -> np.ndarray:
        """Time-reversed velocity field.

        Not simply -rhs: the sphere's radius-stabilization term must
        keep its sign or backward orbits leave the sphere exponentially.
        """
        u = np.asarray(u, dtype=float)
        if self.on_sphere:
            g = self.grad(u)
            v = g - np.dot(g, u) * u / np.dot(u, u)
            return v + (1.0 - np.dot(u, u)) * u
        return -self.rhs(u)

    def hessian(self, u, h: float = 1e-5) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        cols = []
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = h
            cols.append((self.grad(u + e) - self.grad(u - e)) / (2 * h))
        mat = np.stack(cols, axis=1)
        return 0.5 * (mat + mat.T)

    # -- geometry ------------------------------------------------------

    def embed(self, U) -> np.ndarray:
        """Embedding into a fixed Euclidean space for all distances."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if self._embed is not None:
            return self._embed(U)
        return U

    def wrap(self, u) -> np.ndarray:
        u = np.array(u, dtype=float)
        if self.period:
            for a, per in enumerate(self.period):
                if per:
                    u[a] = u[a] % per
        return u

    def distance(self, a, b) -> float:
        return float(
            np.linalg.norm(self.embed([a])[0] - self.embed([b])[0])
        )

    def in_box(self, u, margin: float = 0.0) -> bool:
        if self.box is None:
            return True
        lo, hi = self.box
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= lo + margin) and np.all(u <= hi - margin))

    def default_seeds(self, per_axis: int = 24) -> np.ndarray:
        if self.on_sphere:
            # Fibonacci points on the unit sphere
            k = np.arange(per_axis * per_axis)
            phi = math.pi * (3.0 - math.sqrt(5.0)) * k
            z = 1.0 - 2.0 * (k + 0.5) / len(k)
            rad = np.sqrt(1.0 - z * z)
            return np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)
        axes = []
        for a in range(self.dim):
            if self.period and self.period[a]:
                axes.append(np.linspace(0, self.period[a], per_axis, endpoint=False))
            elif self.box is not None:
                lo, hi = self.box
                axes.append(np.linspace(lo[a], hi[a], per_axis))
            else:
                axes.append(np.linspace(-2, 2, per_axis))
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def tilted_torus(
    tilt: float = 0.1, swirl: float = 0.7, big_radius: float = 2.0,
    small_radius: float = 1.0,
) -> MorseSystem:
    """Height-like function on an embedded torus, tilted generically.

    Chart (theta, phi), both 2*pi-periodic; theta runs around the tube.
    The linear function is along a direction tilted off the symmetry
    axis so that no saddle-to-saddle flow line survives.
    """
    R, r = big_radius, small_radius
    e = np.array(
        [
            math.cos(tilt),
            math.sin(tilt) * math.cos(swirl),
            math.sin(tilt) * math.sin(swirl),
        ]
    )

    def embed(U):
        th, ph = U[:, 0], U[:, 1]
        w = R + r * np.cos(th)
        return np.stack([w * np.cos(ph), w * np.sin(ph), r * np.sin(th)], axis=1)

    def f(u):
        th, ph = u[..., 0], u[..., 1]
        w = R + r * np.cos(th)
        return e[0] * w * np.cos(ph) + e[1] * w * np.sin(ph) + e[2] * r * np.sin(th)

    def grad(u):
        th, ph = u[0], u[1]
        ct, st = math.cos(th), math.sin(th)
        cp, sp = math.cos(ph), math.sin(ph)
        w = R + r * ct
        df_dth = (
            -r * st * (e[0] * cp + e[1] * sp) + e[2] * r * ct
        )
        df_dph = w * (-e[0] * sp + e[1] * cp)
        return np.array([df_dth, df_dph])

    def metric_inv(u):
        w = R + r * math.cos(u[0])
        return np.array([1.0 / (r * r), 1.0 / (w * w)])

    return MorseSystem(
        "torus", 2, f, grad=grad, metric_inv=metric_inv, embed=embed,
        period=(TWO_PI, TWO_PI),
    )


def round_sphere() -> MorseSystem:
    """Height function on the unit sphere in ambient coordinates."""

    def f(u):
        return u[..., 2]

    def grad(u):
        g = np.zeros(3)
        g[2] = 1.0
        return g

    return MorseSystem("sphere", 3, f, grad=grad, on_sphere=True)


def interval_well() -> MorseSystem:
    """f(x) = x^2 on [-1, 1]: a single interior minimum."""
    return MorseSystem(
        "well", 1,
        lambda u: float(u[0] ** 2),
        grad=lambda u: np.array([2.0 * u[0]]),
        box=([-1.0], [1.0]),
    )


def double_system(weight: float = 1.3) -> MorseSystem:
    """Two independent one-dimensional cubic factors on a box.

    f(x, y) = h(x) + weight * h(y) with h(t) = t^3/3 - t, so the flow
    is a product of the factor flows; used to check that gluing factors
    through a product system matches gluing the product directly.
    """

    def h(t):
        return t ** 3 / 3.0 - t

    def dh(t):
        return t * t - 1.0

    return MorseSystem(
        "double", 2,
        lambda u: float(h(u[0]) + weight * h(u[1])),
        grad=lambda u: np.array([dh(u[0]), weight * dh(u[1])]),
        box=([-2.5, -2.5], [2.5, 2.5]),
    )


BUILTIN_SYSTEMS = {
    "torus": tilted_torus,
    "sphere": round_sphere,
    "well": interval_well,
    "double": double_system,
}


# ---------------------------------------------------------------------
# symbolic expressions for custom systems
# ---------------------------------------------------------------------

_ALLOWED_CALLS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_ALLOWED_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}


def parse_expression(text: str, variables):
    """Compile an arithmetic expression into a function of a coordinate
    vector.  Supports +, -, *, /, **, sin, cos, exp and the given
    variable names; anything else is rejected."""
    variables = list(variables)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"bad expression {text!r}: {exc}") from exc

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            val = float(node.value)
            return lambda u: val
        if isinstance(node, ast.Name):
            if node.id not in variables:
                raise InputError(f"unknown variable {node.id!r}")
            idx = variables.index(node.id)
            return lambda u: float(u[idx])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = build(node.operand)
            return lambda u: -inner(u)
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            op = _ALLOWED_BINOPS[type(node.op)]
            left, right = build(node.left), build(node.right)
            return lambda u: op(left(u), right(u))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ALLOWED_CALLS
            and len(node.args) == 1
            and not node.keywords
        ):
            fn = _ALLOWED_CALLS[node.func.id]
            arg = build(node.args[0])
            return lambda u: fn(arg(u))
        raise InputError(f"unsupported expression element {ast.dump(node)}")

    return build(tree)


def system_from_expression(
    expr: str, dim: int, box=None, period=None, name: str = "custom"
) -> MorseSystem:
    """A system whose f is a symbolic expression in x, y, z / x0..xn."""
    if not 1 <= dim <= 3:
        raise UnsupportedDimensionError(f"custom systems support dim 1..3, got {dim}")
    if box is not None:
        arr = np.asarray(box, dtype=float)
        # accept per-axis [lo, hi] rows as well as (lo_vec, hi_vec)
        if arr.shape == (dim, 2) and np.all(arr[:, 0] < arr[:, 1]):
            box = (arr[:, 0], arr[:, 1])
        elif arr.shape == (2, dim) and np.all(arr[0] < arr[1]):
            box = (arr[0], arr[1])
        else:
            raise InputError(f"bad box {box!r} for dimension {dim}")
    names = ["x", "y", "z"][:dim]
    fn = parse_expression(expr, names + [f"x{i}" for i in range(dim)])
    # accept both spellings by duplicating the coordinate vector
    def f(u):
        return fn(np.concatenate([u, u]))

    return MorseSystem(name, dim, f, box=box, period=period)


# ---------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------


@dataclass
class CriticalPointData:
    id: str
    location: np.ndarray
    value: float
    index: int
    gradient_norm: float
    eigenvalues: np.ndarray
    morse: bool


def find_critical_points(system: MorseSystem, seeds=None) -> list[CriticalPointData]:
    """Deduplicated critical points with Morse indices.

    Root-solves the gradient from a grid of seeds, drops roots outside
    the domain, merges duplicates (periodically), and indexes each root
    by the negative-eigenvalue count of the chart Hessian (tangent
    Hessian on the sphere).  Degenerate roots are flagged non-Morse.
    """
    if seeds is None:
        seeds = system.default_seeds()

    def objective(u):
        if system.on_sphere:
            g = system.grad(u)
            tang = g - np.dot(g, u) * u / max(np.dot(u, u), 1e-12)
            return np.concatenate([tang[:2], [np.dot(u, u) - 1.0]])
        return system.grad(u)

    found: list[CriticalPointData] = []
    for seed in seeds:
        sol = root(objective, np.asarray(seed, float), tol=1e-12)
        if not sol.success:
            continue
        u = sol.x
        if system.on_sphere:
            u = u / np.linalg.norm(u)
        u = system.wrap(u)
        if not system.in_box(u, margin=1e-9):
            continue
        gnorm = float(np.linalg.norm(system.grad(u))) if not system.on_sphere else float(
            np.linalg.norm(
                system.grad(u) - np.dot(system.grad(u), u) * u
            )
        )
        if gnorm > 1e-8:
            continue
        if any(system.distance(u, c.location) < 1e-6 for c in found):
            continue
        if system.on_sphere:
            hess = _sphere_hessian(system, u, _tangent_basis(u))
        else:
            hess = system.hessian(u)
        eig = np.linalg.eigvalsh(hess)
        found.append(
            CriticalPointData(
                id="",
                location=u,
                value=system.f(u),
                index=int(np.sum(eig < 0)),
                gradient_norm=gnorm,
                eigenvalues=eig,
                morse=bool(np.min(np.abs(eig)) > 1e-6),
            )
        )
    found.sort(key=lambda c: -c.value)
    for k, c in enumerate(found):
        c.id = f"c{k}"
    if not found:
        raise InputError("no critical points found; is f constant?")
    return found


def _sphere_hessian(system, u, basis, h: float = 1e-4) -> np.ndarray:
    """Hessian of f restricted to the sphere, in a tangent chart.

    Uses second differences of f composed with radial projection; at a
    critical point this equals the intrinsic Hessian (the chart's first
    derivative vanishes there), including the curvature term an ambient
    Hessian would miss.
    """

    def F(a, b):
        x = u + a * basis[:, 0] + b * basis[:, 1]
        return system.f(x / np.linalg.norm(x))

    f0 = F(0.0, 0.0)
    H = np.empty((2, 2))
    H[0, 0] = (F(h, 0) - 2 * f0 + F(-h, 0)) / h**2
    H[1, 1] = (F(0, h) - 2 * f0 + F(0, -h)) / h**2
    H[0, 1] = H[1, 0] = (
        F(h, h) - F(h, -h) - F(-h, h) + F(-h, -h)
    ) / (4 * h**2)
    return H


def _tangent_basis(u: np.ndarray) -> np.ndarray:
    """Two orthonormal vectors spanning the tangent plane at u on S^2."""
    u = u / np.linalg.norm(u)
    a = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(a, u)) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    v1 = a - np.dot(a, u) * u
    v1 /= np.linalg.norm(v1)
    v2 = np.cross(u, v1)
    return np.stack([v1, v2], axis=1)


# ---------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------


@dataclass
class FlowSegment:
    times: np.ndarray
    states: np.ndarray
    status: str  # converged | exited | time
    sol: object = None


def integrate_flow(
    system: MorseSystem,
    x,
    t_span=(0.0, 400.0),
    rtol: float = 1e-10,
    atol: float = 1e-12,
    stop_speed: float = 1e-7,
    samples: int = 400,
) -> FlowSegment:
    """Integrate the negative-gradient flow from x.

    Stops when the speed drops below ``stop_speed`` (converged to a
    critical point), when the path leaves the bounding box (truncated),
    or at the end of the time span.
    """
    x = np.asarray(x, dtype=float)

    def rhs(t, u):
        return system.rhs(u)

    events = []

    def speed_event(t, u):
        return float(np.linalg.norm(system.rhs(u))) - stop_speed

    speed_event.terminal = True
    speed_event.direction = -1
    events.append(speed_event)
    if system.box is not None:
        lo, hi = system.box

        def box_event(t, u):
            return float(np.min(np.minimum(u - lo, hi - u))) + 1e-9

        box_event.terminal = True
        box_event.direction = -1
        events.append(box_event)

    sol = solve_ivp(
        rhs, t_span, x, method="DOP853", rtol=rtol, atol=atol,
        events=events, dense_output=True,
    )
    if sol.t_events[0].size:
        status = "converged"
    elif system.box is not None and sol.t_events[1].size:
        status = "exited"
    else:
        status = "time"
    ts = np.linspace(sol.t[0], sol.t[-1], samples)
    states = sol.sol(ts).T
    return FlowSegment(times=ts, states=states, status=status, sol=sol)


# ---------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------


@dataclass
class Trajectory:
    source: str
    target: str
    times: np.ndarray
    states: np.ndarray          # chart coordinates, includes both endpoints
    points: np.ndarray          # embedded coordinates
    anchor: np.ndarray          # chart point at the pair's mid level of f
    angle: float | None = None  # shooting parameter, when applicable


def _unstable_frame(system: MorseSystem, crit: CriticalPointData) -> np.ndarray:
    """Orthonormal-ish basis of the unstable space of the flow at crit."""
    u = crit.location
    h = 1e-6
    cols = []
    if system.on_sphere:
        basis = _tangent_basis(u)
        for i in range(2):
            e = basis[:, i] * h
            cols.append((system.rhs(u + e) - system.rhs(u - e)) / (2 * h))
        A = basis.T @ np.stack(cols, axis=1)
        w, v = np.linalg.eig(A)
        keep = np.real(w) > 0
        vecs = basis @ np.real(v[:, keep])
    else:
        for i in range(system.dim):
            e = np.zeros(system.dim)
            e[i] = h
            cols.append((system.rhs(u + e) - system.rhs(u - e)) / (2 * h))
        A = np.stack(cols, axis=1)
        w, v = np.linalg.eig(A)
        keep = np.real(w) > 0
        vecs = np.real(v[:, keep])
    if vecs.shape[1] != crit.index:
        raise InputError(
            f"unstable dimension {vecs.shape[1]} != index {crit.index} at {crit.id}"
        )
    q, _ = np.linalg.qr(vecs) if vecs.size else (vecs, None)
    return q


def _shoot_start(system, crit, frame, angle, delta=1e-4):
    k = frame.shape[1]
    if k == 1:
        direction = frame[:, 0] * (1.0 if angle < math.pi else -1.0)
    else:
        direction = frame[:, 0] * math.cos(angle) + frame[:, 1] * math.sin(angle)
    x = crit.location + delta * direction
    if system.on_sphere:
        x = x / np.linalg.norm(x)
    return x


def _nearest_crit(system, crits, u):
    best, dist = None, np.inf
    for c in crits:
        d = system.distance(system.wrap(u), c.location)
        if system.period:
            # also compare against period shifts of the chart point
            for shift in _period_shifts(system):
                d = min(d, float(np.linalg.norm(system.wrap(u) - (c.location + shift))))
        if d < dist:
            best, dist = c, d
    return best, dist


def _period_shifts(system):
    shifts = [np.zeros(system.dim)]
    if not system.period:
        return shifts
    out = [np.zeros(system.dim)]
    for a, per in enumerate(system.period):
        if per:
            more = []
            for s in out:
                for mult in (-1, 0, 1):
                    t = s.copy()
                    t[a] += mult * per
                    more.append(t)
            out = more
    return out


def _make_trajectory(
    system, source: CriticalPointData, target: CriticalPointData,
    seg: FlowSegment, angle=None, truncate_at=None, prefix=None,
) -> Trajectory:
    """Assemble a Trajectory from an integrated segment.

    ``truncate_at`` cuts the segment at its closest approach to the
    given critical point (used for limits into a saddle).  The stored
    path is prepended/appended with the exact endpoint locations, and
    anchored where f crosses the pair's mid level.
    """
    states = seg.states
    times = seg.times
    if truncate_at is not None:
        embedded = system.embed(states)
        tloc = system.embed([truncate_at.location])[0]
        cut = int(np.argmin(np.linalg.norm(embedded - tloc, axis=1)))
        states = states[: cut + 1]
        times = times[: cut + 1]
    mid = 0.5 * (source.value + target.value)
    fs = np.array([system.f(u) for u in states])
    k = int(np.searchsorted(-fs, -mid))
    k = min(max(k, 1), len(states) - 1)
    if seg.sol is not None:
        lo, hi = times[k - 1], times[k]
        try:
            t_mid = brentq(
                lambda t: system.f(seg.sol.sol(t)) - mid, lo, hi, xtol=1e-12
            )
            anchor = seg.sol.sol(t_mid)
        except ValueError:
            anchor = states[k]
    else:
        anchor = states[k]
    if prefix is not None and len(prefix[0]):
        pre_states, pre_times = prefix
        head = np.vstack([source.location, pre_states])
        head_times = np.concatenate(
            [[times[0] + pre_times[0] - 1.0], times[0] + pre_times]
        )
    else:
        head = np.atleast_2d(source.location)
        head_times = np.array([times[0] - 1.0])
    full_states = np.vstack([head, states, target.location])
    full_times = np.concatenate([head_times, times, [times[-1] + 1.0]])
    return Trajectory(
        source=source.id,
        target=target.id,
        times=full_times,
        states=full_states,
        points=system.embed(full_states),
        anchor=np.asarray(anchor, dtype=float),
        angle=angle,
    )


# ---------------------------------------------------------------------
# polyline geometry
# ---------------------------------------------------------------------


_CHUNK = 16  # points per exact kernel call in _farthest


def _points_to_polyline(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Distance from each point of P to the polyline with vertices Q.

    The dense reference: every point against every segment, P×S×dim
    temporaries.  Each row depends only on its own point, so calling it
    on a subset of P gives the same values, bit for bit, as the
    matching rows of a call on all of P.  ``_farthest`` relies on that
    (it is the per-chunk kernel there), and the tests use this function
    as the oracle for ``hausdorff`` and ``hausdorff_to_union``.
    """
    A = Q[:-1]
    B = Q[1:]
    AB = B - A
    denom = np.maximum(np.einsum("ij,ij->i", AB, AB), 1e-30)
    diff = P[:, None, :] - A[None, :, :]
    t = np.clip(np.einsum("pse,se->ps", diff, AB) / denom, 0.0, 1.0)
    proj = A[None, :, :] + t[:, :, None] * AB[None, :, :]
    d = np.linalg.norm(P[:, None, :] - proj, axis=2)
    return d.min(axis=1)


def _farthest(P: np.ndarray, parts, tree: cKDTree, cmax: float) -> float:
    """max(cmax, max over p in P of min over parts of the polyline distance).

    Exact early break (Taha & Hanbury, IEEE TPAMI 37, 2015).  Each
    point's distance to the nearest vertex of the parts (``tree`` holds
    them all) bounds its distance to the polylines from above, since a
    vertex lies on a segment.  Points are visited in descending bound,
    ``_CHUNK`` at a time, each chunk through ``_points_to_polyline``;
    the search stops once the largest bound left cannot beat the
    running maximum.  The bound is inflated by a relative 1e-12 and an
    absolute 1e-12 * (scale + 1), scale the largest coordinate: far
    above the rounding of the tree's and the kernel's distances (the
    kernel can put a vertex an ulp off its own segment), so no skipped
    point could have raised the maximum and the result equals the
    dense pass exactly.
    """
    scale = max(float(np.abs(X).max()) for X in (P, *parts))
    ub = tree.query(P)[0] * (1.0 + 1e-12) + 1e-12 * (scale + 1.0)
    order = np.argsort(-ub, kind="stable")
    for start in range(0, len(order), _CHUNK):
        idx = order[start:start + _CHUNK]
        if ub[idx[0]] <= cmax:
            break
        d = _points_to_polyline(P[idx], parts[0])
        for Q in parts[1:]:
            d = np.minimum(d, _points_to_polyline(P[idx], Q))
        cmax = max(cmax, float(d.max()))
    return cmax


def hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two sampled curves.

    Each side measures point-to-polyline (segment) distances, so the
    result is insensitive to the sampling density to second order.
    Both directed maxima run through ``_farthest``, the second starting
    from the first: the value is that of the dense pass over
    ``_points_to_polyline``, but points whose vertex bound cannot raise
    the maximum are never measured.
    """
    P = np.atleast_2d(P)
    Q = np.atleast_2d(Q)
    if len(Q) < 2:
        d1 = np.linalg.norm(P - Q[0], axis=1)
        return float(d1.max())
    if len(P) < 2:
        return float(_points_to_polyline(Q, P.repeat(2, axis=0)).max())
    h = _farthest(P, [Q], cKDTree(Q), 0.0)
    return _farthest(Q, [P], cKDTree(P), h)


def hausdorff_to_union(P: np.ndarray, parts) -> float:
    """Hausdorff distance from curve P to a union of sampled curves.

    Computed like ``hausdorff``: P against the union, bounded by the
    nearest vertex of any part, then each part back against P.
    """
    P = np.atleast_2d(P)
    parts = [np.atleast_2d(Q) for Q in parts]
    h = _farthest(P, parts, cKDTree(np.vstack(parts)), 0.0)
    tree = cKDTree(P)
    for Q in parts:
        h = _farthest(Q, [P], tree, h)
    return h


# ---------------------------------------------------------------------
# moduli analysis
# ---------------------------------------------------------------------


@dataclass
class ArcEndData:
    junction: str
    left_index: int
    right_index: int
    angle: float
    hausdorff: float


@dataclass
class ModuliArc:
    angle_lo: float
    angle_hi: float
    ends: tuple  # (ArcEndData at angle_lo, ArcEndData at angle_hi)
    length: float = 0.0
    _tables: dict = field(default_factory=dict)


@dataclass
class PairData:
    pair: tuple[str, str]
    dim: int
    trajectories: list = field(default_factory=list)
    arcs: list = field(default_factory=list)
    circle: float | None = None


class ModuliAnalysis:
    """All computed flow data of one system: critical points, the
    connection poset, and per-pair moduli structure."""

    def __init__(self, system: MorseSystem, resolution: int = 64, rng=None):
        self.system = system
        self.resolution = resolution
        self.critical_points = find_critical_points(system)
        self.by_id = {c.id: c for c in self.critical_points}
        if not all(c.morse for c in self.critical_points):
            bad = [c.id for c in self.critical_points if not c.morse]
            raise InputError(f"degenerate (non-Morse) critical points: {bad}")
        self.pairs: dict[tuple[str, str], PairData] = {}
        self._sweeps: dict[str, dict] = {}
        self._compute()

    # -- structure -----------------------------------------------------

    def _compute(self):
        crits = self.critical_points
        dim = 2 if self.system.on_sphere else self.system.dim
        todo = [
            (p, q)
            for p in crits
            for q in crits
            if p.value > q.value and p.index > q.index
        ]
        # isolated pairs first: arcs match their ends against them
        todo.sort(key=lambda pq: pq[0].index - pq[1].index)
        for p, q in todo:
            gap = p.index - q.index
            if gap == 1:
                trajs = self._isolated_trajectories(p, q)
                if trajs:
                    self.pairs[(p.id, q.id)] = PairData(
                        (p.id, q.id), 0, trajectories=trajs
                    )
            elif gap == 2:
                data = self._one_dim_moduli(p, q)
                if data is not None:
                    self.pairs[(p.id, q.id)] = data
            else:
                raise UnsupportedDimensionError(
                    f"moduli of ({p.id},{q.id}) would have dimension {gap - 1}"
                )

    def relations(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)

    # -- isolated (0-dimensional) moduli -------------------------------

    def _isolated_trajectories(self, p, q) -> list[Trajectory]:
        if p.index == 1:
            return self._saddle_descents(p, q)
        sweep = self._sweep(p)
        out = []
        for special in sweep["special"]:
            if special["target"] != q.id:
                continue
            out.append(special["trajectory"])
        out.sort(key=lambda t: t.angle)
        return out

    def _saddle_descents(self, p, q) -> list[Trajectory]:
        frame = _unstable_frame(self.system, p)
        out = []
        for angle in (0.0, math.pi):
            x = _shoot_start(self.system, p, frame, angle)
            seg = integrate_flow(self.system, x)
            if seg.status != "converged":
                continue
            target, dist = _nearest_crit(self.system, self.critical_points, seg.states[-1])
            if target.id != q.id or dist > 1e-4:
                continue
            out.append(_make_trajectory(self.system, p, target, seg, angle=angle))
        return out

    # -- shooting sweep from an index-2 point ---------------------------

    def _launch_level(self, p) -> float:
        below = [c.value for c in self.critical_points if c.value < p.value]
        top = max(below)
        return p.value - 0.25 * (p.value - top)

    def _launch(self, p, frame, angle):
        """Starting point on the level circle around p at the given angle.

        Shooting directly off the unstable eigenframe is useless here:
        separatrix angles collapse exponentially onto the weak
        eigendirection.  Position along the nearby level curve of f is
        an honest coordinate on the local family of descending
        trajectories, so shots are launched from there.
        """
        system = self.system
        if frame.shape[1] == 1:
            direction = frame[:, 0] * (1.0 if angle < math.pi else -1.0)
        else:
            direction = frame[:, 0] * math.cos(angle) + frame[:, 1] * math.sin(angle)
        level = self._launch_level(p)
        if system.on_sphere:
            base = p.location / np.linalg.norm(p.location)
            direction = direction - np.dot(direction, base) * base
            direction /= np.linalg.norm(direction)
            curve = lambda s: np.cos(s) * base + np.sin(s) * direction
            s_max = 0.9 * math.pi
        else:
            curve = lambda s: p.location + s * direction
            s_max = 20.0
        s_lo, s_hi = 1e-9, 1e-3
        while system.f(curve(s_hi)) > level:
            s_lo = s_hi
            s_hi *= 1.5
            if s_hi > s_max:
                raise InputError(
                    f"level curve around {p.id} not reached along angle {angle}"
                )
        s_star = brentq(lambda s: system.f(curve(s)) - level, s_lo, s_hi, xtol=1e-14)
        return curve(s_star)

    def _back_prefix(self, p, x0, samples: int = 60):
        """Backward path from x0 up to (near) p, ordered p -> x0."""
        system = self.system

        def rhs(t, u):
            return system.rhs_back(u)

        def speed_event(t, u):
            return float(np.linalg.norm(system.rhs(u))) - 1e-9

        speed_event.terminal = True
        speed_event.direction = -1
        sol = solve_ivp(
            rhs, (0.0, 200.0), np.asarray(x0, float), method="DOP853",
            rtol=1e-10, atol=1e-12, events=[speed_event], dense_output=True,
        )
        ts = np.linspace(sol.t[0], sol.t[-1], samples)
        # backward time s corresponds to flow time -s before the launch
        return sol.sol(ts).T[::-1][:-1], -ts[::-1][:-1]

    def _classify(self, p, frame, angle, level, rtol=1e-8):
        """Integrate one shot and summarize where it went.

        Returns (tag, descriptor): tag is 'crit:<id>' or 'exit', and the
        descriptor is the embedded crossing point at the reference level
        (continuous within one trajectory family, jumping across the
        stable set of a saddle).
        """
        x = self._launch(p, frame, angle)
        seg = integrate_flow(self.system, x, rtol=rtol, atol=1e-10, samples=200)
        if seg.status == "exited":
            return "exit", system_embed_end(self.system, seg)
        target, dist = _nearest_crit(self.system, self.critical_points, seg.states[-1])
        if seg.status != "converged" or dist > 1e-3:
            return "lost", system_embed_end(self.system, seg)
        fs = np.array([self.system.f(u) for u in seg.states])
        k = int(np.searchsorted(-fs, -level))
        if k <= 0 or k >= len(seg.states):
            desc = self.system.embed([seg.states[-1]])[0]
        else:
            lo, hi = seg.times[k - 1], seg.times[k]
            try:
                t_cross = brentq(
                    lambda t: self.system.f(seg.sol.sol(t)) - level, lo, hi,
                    xtol=1e-12,
                )
                desc = self.system.embed([seg.sol.sol(t_cross)])[0]
            except ValueError:
                desc = self.system.embed([seg.states[k]])[0]
        return f"crit:{target.id}", desc

    def _sweep(self, p) -> dict:
        if p.id in self._sweeps:
            return self._sweeps[p.id]
        system = self.system
        crits = self.critical_points
        frame = _unstable_frame(system, p)
        saddles = [c for c in crits if c.index == p.index - 1 and c.value < p.value]
        sinks = [c for c in crits if c.index == p.index - 2]
        if sinks and saddles:
            level = 0.5 * (
                min(s.value for s in saddles) + max(k.value for k in sinks)
            )
        elif sinks:
            level = 0.5 * (p.value + min(k.value for k in sinks))
        else:
            level = p.value - 0.5
        n = self.resolution
        angles = np.arange(n) / n * TWO_PI
        marks = [self._classify(p, frame, a, level) for a in angles]
        gaps = [
            np.linalg.norm(marks[i][1] - marks[(i + 1) % n][1])
            for i in range(n)
            if marks[i][0] == marks[(i + 1) % n][0]
        ]
        med = float(np.median(gaps)) if gaps else 0.05
        thresh = max(3.0 * med, 0.02)
        candidates = [
            (angles[i], angles[(i + 1) % n] + (TWO_PI if i == n - 1 else 0.0),
             marks[i], marks[(i + 1) % n])
            for i in range(n)
            if marks[i][0] != marks[(i + 1) % n][0]
            or np.linalg.norm(marks[i][1] - marks[(i + 1) % n][1]) > thresh
        ]
        raw_special = []
        for lo, hi, mark_lo, mark_hi in candidates:
            for _ in range(60):
                if hi - lo < 1e-12:
                    break
                mid = 0.5 * (lo + hi)
                mark_mid = self._classify(p, frame, mid, level)
                if mark_mid[0] == mark_lo[0] and (
                    mark_mid[0] != mark_hi[0]
                    or np.linalg.norm(mark_mid[1] - mark_lo[1])
                    <= np.linalg.norm(mark_mid[1] - mark_hi[1])
                ):
                    lo, mark_lo = mid, mark_mid
                elif mark_mid[0] == mark_hi[0]:
                    hi, mark_hi = mid, mark_mid
                else:
                    # the midpoint shot itself converged elsewhere: it is
                    # essentially on the separating trajectory
                    lo = hi = mid
                    break
            if hi - lo > 1e-10 or (
                mark_lo[0] == mark_hi[0]
                and np.linalg.norm(mark_lo[1] - mark_hi[1]) < 1e-4
            ):
                continue  # gap closed under refinement: not a real jump
            raw_special.append(0.5 * (lo + hi))
        special = []
        seen_angles: list[float] = []
        for angle in raw_special:
            wrapped = angle % TWO_PI
            if any(
                min(abs(wrapped - s), TWO_PI - abs(wrapped - s)) < 1e-7
                for s in seen_angles
            ):
                continue
            seen_angles.append(wrapped)
            x = self._launch(p, frame, angle)
            seg = integrate_flow(system, x, rtol=1e-10, samples=600)
            # which saddle does the limiting shot hug?
            emb = system.embed(seg.states)
            best, bdist = None, np.inf
            for s in saddles:
                d = float(
                    np.linalg.norm(emb - system.embed([s.location])[0], axis=1).min()
                )
                if d < bdist:
                    best, bdist = s, d
            if best is None or bdist > 1e-3:
                continue
            traj = _make_trajectory(
                system, p, best, seg, angle=angle, truncate_at=best,
                prefix=self._back_prefix(p, x),
            )
            special.append(
                {"angle": angle % TWO_PI, "target": best.id, "trajectory": traj,
                 "approach": bdist}
            )
        special.sort(key=lambda s: s["angle"])
        result = {
            "frame": frame, "level": level, "angles": angles, "marks": marks,
            "special": special,
        }
        self._sweeps[p.id] = result
        return result

    # -- one-dimensional moduli -----------------------------------------

    def _shot_trajectory(self, p, q, angle, samples=500) -> Trajectory:
        sweep = self._sweep(p)
        x = self._launch(p, sweep["frame"], angle)
        seg = integrate_flow(self.system, x, rtol=1e-10, samples=samples)
        return _make_trajectory(
            self.system, p, q, seg, angle=angle,
            prefix=self._back_prefix(p, x),
        )

    def _one_dim_moduli(self, p, q) -> PairData | None:
        sweep = self._sweep(p)
        special = sweep["special"]
        sink_tag = f"crit:{q.id}"
        if not special:
            hits = [m for m in sweep["marks"] if m[0] == sink_tag]
            if not hits:
                return None
            # closed one-parameter family: no broken boundary
            circ = self._loop_length(p, q)
            return PairData((p.id, q.id), 1, circle=circ)
        arcs = []
        angles = [s["angle"] for s in special]
        for i, lo in enumerate(angles):
            hi = angles[(i + 1) % len(angles)]
            if hi <= lo:
                hi += TWO_PI
            mid = 0.5 * (lo + hi)
            mark = self._classify(p, sweep["frame"], mid, sweep["level"])
            if mark[0] != sink_tag:
                continue
            arcs.append(
                ModuliArc(lo, hi, ends=(None, None))
            )
        if not arcs:
            return None
        data = PairData((p.id, q.id), 1, arcs=arcs)
        self._match_arc_ends(p, q, data)
        return data

    # -- broken-limit matching ------------------------------------------

    def _broken_parts(self, p, q, junction_id):
        left = self.pairs[(p.id, junction_id)].trajectories
        right = self.pairs[(junction_id, q.id)].trajectories
        return left, right

    def _special_by_angle(self, p, angle):
        for s in self._sweep(p)["special"]:
            if abs((s["angle"] - angle) % TWO_PI) < 1e-9 or abs(
                (s["angle"] - angle) % TWO_PI - TWO_PI
            ) < 1e-9:
                return s
        raise InputError(f"no special shot at angle {angle}")

    def _match_arc_ends(self, p, q, data: PairData):
        for arc in data.arcs:
            ends = []
            for side, angle in ((0, arc.angle_lo), (1, arc.angle_hi)):
                special = self._special_by_angle(p, angle)
                junction = special["target"]
                left, right = self._broken_parts(p, q, junction)
                li = next(
                    i for i, t in enumerate(left)
                    if abs(t.angle - special["trajectory"].angle) < 1e-9
                )
                span = arc.angle_hi - arc.angle_lo
                # below ~1e-8 the saddle passage is at integrator noise
                # level and the probe may hop branches; 1e-6 is safe
                probe_angle = angle + (1 if side == 0 else -1) * min(
                    1e-6, 1e-3 * span
                )
                probe = self._shot_trajectory(p, q, probe_angle)
                best_ri, best_h = None, np.inf
                for ri, rtraj in enumerate(right):
                    h = hausdorff_to_union(
                        probe.points,
                        [left[li].points, rtraj.points],
                    )
                    if h < best_h:
                        best_ri, best_h = ri, h
                ends.append(
                    ArcEndData(
                        junction=junction, left_index=li, right_index=best_ri,
                        angle=angle, hausdorff=best_h,
                    )
                )
            arc.ends = tuple(ends)
            arc.length = self._arc_length(p, q, arc)

    # -- arc-length tables (gluing parameter) ---------------------------

    def _end_table(self, p, q, arc: ModuliArc, side: int, depth: int = 25):
        """Cumulative Hausdorff-metric arc length from one arc end.

        Returns (offsets from the end angle, cumulative lengths), both
        increasing, starting at the boundary (offset ~0, length 0).
        """
        key = side
        if key in arc._tables:
            return arc._tables[key]
        span = arc.angle_hi - arc.angle_lo
        end = arc.angle_lo if side == 0 else arc.angle_hi
        sign = 1.0 if side == 0 else -1.0
        offsets = span * 0.5 * (0.5 ** np.arange(depth))[::-1]
        trajs = [
            self._shot_trajectory(p, q, end + sign * off, samples=300)
            for off in offsets
        ]
        end_data = arc.ends[side]
        left, right = self._broken_parts(p, q, end_data.junction)
        broken = [
            left[end_data.left_index].points,
            right[end_data.right_index].points,
        ]
        # distance from the innermost sample to the boundary itself
        lengths = [hausdorff_to_union(trajs[0].points, broken)]
        for a, b in zip(trajs, trajs[1:]):
            lengths.append(lengths[-1] + hausdorff(a.points, b.points))
        table = (offsets, np.array(lengths))
        arc._tables[key] = table
        return table

    def _arc_length(self, p, q, arc: ModuliArc) -> float:
        off0, len0 = self._end_table(p, q, arc, 0)
        off1, len1 = self._end_table(p, q, arc, 1)
        # the two half-tables meet at the arc midpoint
        mid0 = self._shot_trajectory(p, q, arc.angle_lo + off0[-1])
        mid1 = self._shot_trajectory(p, q, arc.angle_hi - off1[-1])
        return float(len0[-1] + len1[-1] + hausdorff(mid0.points, mid1.points))

    def _loop_length(self, p, q) -> float:
        n = max(self.resolution, 32)
        angles = np.arange(n + 1) / n * TWO_PI
        trajs = [self._shot_trajectory(p, q, a, samples=200) for a in angles]
        total = 0.0
        for a, b in zip(trajs, trajs[1:]):
            total += hausdorff(a.points, b.points)
        return total

    # -- gluing ---------------------------------------------------------

    def glue(self, gamma1: Trajectory, gamma2: Trajectory, lam: float) -> Trajectory:
        """The unbroken trajectory at gluing parameter lam > 0.

        gamma1 and gamma2 are an adjacent broken pair; lam is Hausdorff
        arc length of the 1-dim moduli space measured from that broken
        boundary point.
        """
        if lam <= 0:
            raise RangeError(f"gluing parameter must be positive, got {lam}")
        p_id, junction, q_id = gamma1.source, gamma1.target, gamma2.target
        if gamma2.source != junction:
            raise InputError("trajectories do not share a junction")
        pair = self.pairs.get((p_id, q_id))
        if pair is None or pair.dim != 1:
            raise InputError(f"no one-dimensional moduli for ({p_id},{q_id})")
        left, right = self._broken_parts(
            self.by_id[p_id], self.by_id[q_id], junction
        )
        li = next(
            i for i, t in enumerate(left) if abs(t.angle - gamma1.angle) < 1e-9
        )
        ri = next(
            i for i, t in enumerate(right) if abs(t.angle - gamma2.angle) < 1e-9
        )
        for arc in pair.arcs:
            for side, end in enumerate(arc.ends):
                if (
                    end.junction == junction
                    and end.left_index == li
                    and end.right_index == ri
                ):
                    return self._glue_on_arc(p_id, q_id, arc, side, lam)
        raise InputError("broken pair does not bound any computed arc")

    def _glue_on_arc(self, p_id, q_id, arc, side, lam):
        p = self.by_id[p_id]
        q = self.by_id[q_id]
        offsets, lengths = self._end_table(p, q, arc, side)
        if lam > lengths[-1]:
            raise RangeError(
                f"gluing parameter {lam} beyond arc extent {lengths[-1]:.4g}"
            )
        off = float(np.interp(lam, lengths, offsets))
        end = arc.angle_lo if side == 0 else arc.angle_hi
        sign = 1.0 if side == 0 else -1.0
        return self._shot_trajectory(p, q, end + sign * off)

    # -- export ---------------------------------------------------------

    def to_family(self) -> StratifiedFamily:
        """Assemble the stratified family of all compactified moduli."""
        points = [
            CriticalPoint(c.id, index=c.index) for c in self.critical_points
        ]
        moduli = {}
        for (pid, qid), data in self.pairs.items():
            if data.dim == 0:
                moduli[(pid, qid)] = PairModuli(
                    (pid, qid), 0, count=len(data.trajectories)
                )
            elif data.circle is not None:
                moduli[(pid, qid)] = PairModuli(
                    (pid, qid), 1, circle=data.circle
                )
            else:
                arcs = []
                for arc in data.arcs:
                    if any(e is None for e in arc.ends):
                        raise InputError(
                            f"arc of ({pid},{qid}) has an unresolved end"
                        )
                    arcs.append(
                        ArcData(
                            length=arc.length,
                            ends=tuple(
                                ArcEnd(e.junction, e.left_index, e.right_index)
                                for e in arc.ends
                            ),
                        )
                    )
                moduli[(pid, qid)] = PairModuli((pid, qid), 1, arcs=tuple(arcs))
        return from_morse(
            points, self.relations(), moduli, name=self.system.name
        )


def system_embed_end(system, seg):
    return system.embed([seg.states[-1]])[0]


# ---------------------------------------------------------------------
# module-level operation wrappers
# ---------------------------------------------------------------------


def analyze(system: MorseSystem, resolution: int = 64) -> ModuliAnalysis:
    return ModuliAnalysis(system, resolution=resolution)


def find_trajectories(system, p, q, resolution: int = 64, analysis=None):
    """Sampled moduli of the pair (p, q).

    Returns the isolated trajectories for index gap 1, or a sweep of
    family representatives for index gap 2.
    """
    analysis = analysis or analyze(system, resolution)
    pid = p if isinstance(p, str) else p.id
    qid = q if isinstance(q, str) else q.id
    data = analysis.pairs.get((pid, qid))
    if data is None:
        return []
    if data.dim == 0:
        return list(data.trajectories)
    out = []
    pc = analysis.by_id[pid]
    qc = analysis.by_id[qid]
    if data.circle is not None:
        n = resolution
        for a in np.arange(n) / n * TWO_PI:
            out.append(analysis._shot_trajectory(pc, qc, a, samples=200))
        return out
    for arc in data.arcs:
        span = arc.angle_hi - arc.angle_lo
        for frac in np.linspace(0.15, 0.85, 5):
            out.append(
                analysis._shot_trajectory(pc, qc, arc.angle_lo + frac * span,
                                          samples=200)
            )
    return out


def detect_broken(system, p, q, analysis=None):
    """Boundary data of a one-dimensional moduli space: per-arc ends with
    matched broken pairs and their Hausdorff residuals."""
    analysis = analysis or analyze(system)
    pid = p if isinstance(p, str) else p.id
    qid = q if isinstance(q, str) else q.id
    data = analysis.pairs.get((pid, qid))
    if data is None or data.dim != 1:
        raise InputError(f"({pid},{qid}) has no one-dimensional moduli")
    return data


def numerical_glue(system, gamma1, gamma2, lam, analysis=None) -> Trajectory:
    analysis = analysis or analyze(system)
    return analysis.glue(gamma1, gamma2, lam)


def export_family(system, resolution: int = 64, analysis=None) -> StratifiedFamily:
    analysis = analysis or analyze(system, resolution)
    return analysis.to_family()


def check_transversality(system, p, q, analysis=None) -> dict:
    """Heuristic transversality report for one pair.

    Propagates the unstable frame of the source along each isolated
    trajectory with the linearized flow and measures its minimal
    principal angle against the stable space of the target; for pairs
    with no trajectory, reports whether absence is expected.
    """
    analysis = analysis or analyze(system)
    pid = p if isinstance(p, str) else p.id
    qid = q if isinstance(q, str) else q.id
    pc, qc = analysis.by_id[pid], analysis.by_id[qid]
    expected_dim = pc.index - qc.index - 1
    data = analysis.pairs.get((pid, qid))
    observed_dim = -1 if data is None else data.dim
    report = {
        "pair": (pid, qid),
        "expected_dim": expected_dim,
        "observed_dim": observed_dim,
        "dimension_match": observed_dim == expected_dim
        or (expected_dim < 0 and observed_dim == -1),
        "min_angle": None,
    }
    if data is None or data.dim != 0:
        return report
    angles = []
    for traj in data.trajectories:
        angles.append(
            _trajectory_angle(analysis.system, analysis, pc, qc, traj)
        )
    report["min_angle"] = min(angles) if angles else None
    report["transversal"] = report["min_angle"] is None or report["min_angle"] > 1e-3
    return report


def _trajectory_angle(system, analysis, pc, qc, traj) -> float:
    """Minimal principal angle between the transported unstable frame of
    the source and the stable space of the target, at the target."""
    frame = _unstable_frame(system, pc)
    k = frame.shape[1]
    dim = system.dim

    def rhs(t, z):
        u = z[:dim]
        V = z[dim:].reshape(dim, k)
        h = 1e-6
        cols = []
        base = system.rhs(u)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            cols.append((system.rhs(u + e) - system.rhs(u - e)) / (2 * h))
        A = np.stack(cols, axis=1)
        return np.concatenate([base, (A @ V).ravel()])

    # integrate in short legs, renormalizing the frame between them:
    # the dominant exponent would overflow over a long trajectory
    x = np.array(traj.states[1], dtype=float)
    V = frame.copy()
    for _ in range(60):
        z0 = np.concatenate([x, V.ravel()])
        sol = solve_ivp(rhs, (0, 4.0), z0, method="DOP853", rtol=1e-8, atol=1e-10)
        x = sol.y[:dim, -1]
        V = sol.y[dim:, -1].reshape(dim, k)
        V, _ = np.linalg.qr(V)
        if np.linalg.norm(system.rhs(x)) < 1e-7:
            break
    Vq = V
    if system.on_sphere:
        basis = _tangent_basis(qc.location)
        hess = _sphere_hessian(system, qc.location, basis)
        eigw, eigv = np.linalg.eigh(hess)
        stable = basis @ eigv[:, eigw > 0]
    else:
        eigw, eigv = np.linalg.eigh(system.hessian(qc.location))
        stable = eigv[:, eigw > 0]
    if Vq.size == 0:
        return 0.0
    # transversality: the transported unstable frame and the stable
    # space of the target must jointly span the whole tangent space
    combined = np.hstack([Vq] + ([stable] if stable.size else []))
    target_dim = 2 if system.on_sphere else system.dim
    if combined.shape[1] < target_dim:
        return 0.0
    s = np.linalg.svd(combined, compute_uv=False)
    return float(np.arcsin(np.clip(s[target_dim - 1], 0.0, 1.0)))
