"""Euler-Lagrange dynamics of a planar n-link serial manipulator.

The model is the standard planar chain of revolute joints: link k is a point
mass m_k at distance lc_k along the link, plus a rotor inertia I_k about the
joint axis, with link length l_k connecting to the next joint. Gravity acts
in-plane along -y (set the acceleration to 0 for a horizontal workspace).

With absolute link angles phi = L q and link rates omega = L qd (L the
lower-triangular matrix of ones), M(q) = L^T A(phi) L with
A = G o cos(phi_a - phi_b) and the link-inertia table G = W + diag(I): the
diagonal of the cosines is 1, so the rotor inertias ride on W's diagonal. A
is positive definite, since the geometry matrix W is a Gram matrix (Schur
product theorem). Every Coriolis quantity comes from the one factor
S = G o sin(phi_a - phi_b), equal to W o sin(phi_a - phi_b) because the
diagonal of the sines is 0: the Christoffel matrix C = L^T S diag(omega) L,
the vector C qd = L^T [S omega^2] and the quadratic forms
[C(q, v) v]_k = v^T L^T diag(sum_{a>=k} S_a.) L v behind the growth bound.
The motion is solved in link coordinates (Featherstone, Rigid Body Dynamics
Algorithms, 2008): A omega_dot = L^-T u - S omega^2 with
L^-T u = u_k - u_{k+1}, one linear solve, and qdd = L^-1 omega_dot is a
first difference. The kinetic energy is 1/2 omega^T A omega, so only
mass_matrix, the sampled bounds and the audit's frozen core build M.

The engine's step evaluates this in place and through numpy's C entry
points: the two first differences are taken on named views of their own
buffers, the Coriolis sum calls the C einsum that np.einsum reaches
without path optimization, and the solve calls LAPACK's vector gufunc on
the (..., n) right-hand side, with no signature string and no column
views, into the engine's own buffer for qdd. The engine sets one error
state per integration, not one per solve: there a failed solve is a NaN,
and an instability is reported only by the engine's finite check, by
name. Every other caller solves by _spd_solve, the stacked elimination,
which raises np.linalg.LinAlgError for a pivot that is not positive.

The per-joint gravity caps are exact (all links horizontal). The inertia
eigenvalue bounds and the Coriolis quadratic-growth constant are estimated
once per parameter set by dense sampling with a safety margin. M and C read
the angles only through phi_a - phi_b = q_{b+1} + ... + q_a, so they are
invariant in q_1 and the samples cover the relative angles q_2..q_n alone.
They read them through cos and sin of those differences, so M(-q) = M(q)
and C(-q, v) = -C(q, v): negating q flips the sign of every growth form and
leaves its spectral radius, and the samples hold one point of each pair
{q, -q} (mod 2 pi) of the grid.
The growth constant is the exact maximum over the samples, but the forms
are decomposed only at samples whose Frobenius-norm ceiling reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .scalar_ops import _real_array, _real_number

# numpy's private C entry points, or, where a numpy lacks them, the public
# calls that reach the same C routines and give the same bits, more slowly
try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:
    def _c_einsum(*operands):
        return np.einsum(*operands, optimize=False)
try:
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:
    def _solve1(a, b, out=None):
        """The vector gufunc's call, written into ``out`` if given. Unlike
        the gufunc, it raises for an exactly singular member under any error
        state."""
        x = np.linalg.solve(a, b[..., None])[..., 0]
        if out is None:
            return x
        out[...] = x
        return out

__all__ = [
    "RobotParams",
    "RobotState",
    "DerivedBounds",
    "SingularInertiaError",
    "mass_matrix",
    "coriolis_matrix",
    "gravity_vector",
    "potential_energy",
    "forward_dynamics",
    "energies",
    "derive_bounds",
    "ArmArrays",
    "stack_arm_arrays",
    "link_angles",
    "inertia_kernel",
    "gravity_kernel",
    "acceleration_kernel",
    "kinetic_kernel",
]

# configuration grid budget and safety margin for the sampled bounds
_BOUND_GRID_TARGET = 10_000
_BOUND_MARGIN = 1.05
_MAX_CONDITION = 1e12


class SingularInertiaError(RuntimeError):
    """Raised when an inertia matrix is singular.

    A valid parameter set keeps the inertia matrix uniformly positive
    definite, so this signals corrupted or inconsistent robot parameters.
    """


@dataclass(frozen=True)
class DerivedBounds:
    """Model bounds: the sampled inertia eigenvalue range and Coriolis growth
    constant (||C(q, v) v|| <= coriolis_gain ||v||^2), and the exact
    per-joint caps on the gravity torque magnitude."""

    inertia_min: float
    inertia_max: float
    coriolis_gain: float
    gravity_caps: np.ndarray


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class ArmArrays(NamedTuple):
    """Model constants of one arm, or of several stacked on leading axes."""

    weights: np.ndarray   # (..., n, n) link-inertia table G = W + diag(rotor inertias)
    gravity: np.ndarray   # (..., n) gravity * (masses @ lever)


@dataclass(frozen=True, eq=False)
class RobotParams:
    """Physical description of one planar serial manipulator.

    Attributes:
        masses: link masses [kg], length n.
        lengths: joint-to-joint link lengths [m].
        com_offsets: distance from each joint to the link's mass center [m].
        inertias: rotor inertia of each link about its joint axis [kg m^2].
        gravity: in-plane gravitational acceleration [m/s^2]; 0 means the
            chain moves in a horizontal plane.
        torque_limits: per-joint actuator bounds [N m], or None if unlimited.
        arm: the model constants the kernels read, built once from the above.
    """

    masses: np.ndarray
    lengths: np.ndarray
    com_offsets: np.ndarray
    inertias: np.ndarray
    gravity: float = 9.81
    torque_limits: np.ndarray | None = None
    arm: ArmArrays = field(init=False, repr=False)
    bounds: DerivedBounds = field(init=False, repr=False)

    def __post_init__(self):
        # each field is converted once; one that is not real numbers or lies
        # beyond the float range is named, and nothing is compared
        vectors = ["masses", "lengths", "com_offsets", "inertias"]
        if self.torque_limits is not None:
            vectors.append("torque_limits")
        problems = []
        for name in vectors + ["gravity"]:
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _real_number(name, value) if name == "gravity"
                                   else _readonly(np.atleast_1d(_real_array(name, value))))
            except ValueError as exc:
                problems.append(str(exc))
        if problems:
            raise ValueError("invalid robot parameters: " + "; ".join(problems))
        problems = [f"{name} must be finite" for name in vectors
                    if not np.isfinite(getattr(self, name)).all()]

        n = self.masses.size
        for name in ("lengths", "com_offsets", "inertias"):
            if getattr(self, name).size != n:
                problems.append(f"{name} must have length {n}")
        if n < 1:
            problems.append("at least one joint is required")
        if np.any(self.masses <= 0):
            problems.append("masses must be positive")
        if not problems:
            if np.any(self.lengths <= 0):
                problems.append("lengths must be positive")
            if np.any(self.com_offsets <= 0) or np.any(self.com_offsets > self.lengths):
                problems.append("com_offsets must lie in (0, length] for each link")
            if np.any(self.inertias < 0):
                problems.append("inertias must be nonnegative")
            if not np.isfinite(self.gravity) or self.gravity < 0:
                problems.append("gravity must be a nonnegative real")
            if self.torque_limits is not None:
                if self.torque_limits.size != n:
                    problems.append(f"torque_limits must have length {n}")
                elif np.any(self.torque_limits <= 0):
                    problems.append("torque_limits must be positive")
        if problems:
            raise ValueError("invalid robot parameters: " + "; ".join(problems))

        # chain geometry: lever[k, j] is the lever arm of joint j for link k's
        # mass center (l_j upstream, lc_k on the link itself, 0 downstream)
        lever = np.zeros((n, n))
        for k in range(n):
            lever[k, :k] = self.lengths[:k]
            lever[k, k] = self.com_offsets[k]
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite term is named below
            weights = np.einsum("k,ka,kb->ab", self.masses, lever, lever) + np.diag(self.inertias)
            torques = self.gravity * (self.masses @ lever)
        problems = [f"{name} must be finite" for name, term in (("inertia weights", weights),
                    ("gravity torques", torques)) if not np.isfinite(term).all()]
        if problems:
            raise ValueError("invalid robot parameters: " + "; ".join(problems))
        object.__setattr__(self, "arm", ArmArrays(_readonly(weights), _readonly(torques)))

        object.__setattr__(self, "bounds", derive_bounds(self))
        if self.bounds.inertia_max / self.bounds.inertia_min > _MAX_CONDITION:
            raise ValueError(
                "inertia matrix is numerically singular somewhere on the "
                f"configuration torus (condition > {_MAX_CONDITION:.0e})"
            )
        if self.torque_limits is not None:
            short = self.torque_limits <= self.bounds.gravity_caps
            if np.any(short):
                bad = np.flatnonzero(short) + 1
                raise ValueError(
                    "torque limit must exceed the gravity cap so each actuator "
                    f"can hold its own link weight; violated at joint(s) {bad.tolist()}"
                )

    @property
    def n(self) -> int:
        return self.masses.size


@dataclass(frozen=True, eq=False)
class RobotState:
    """Joint positions [rad] and velocities [rad/s] of one robot."""

    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        for name in ("q", "qdot"):
            object.__setattr__(self, name, np.atleast_1d(_real_array(name, getattr(self, name))))
        if self.q.shape != self.qdot.shape or self.q.ndim != 1:
            raise ValueError("q and qdot must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.qdot))):
            raise ValueError("robot state must be finite")


def _check_q(params: RobotParams, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (params.n,):
        raise ValueError(f"expected {params.n} joint values, got shape {q.shape}")
    return q


# --- batched kernels ------------------------------------------------------
#
# The kernels take the model constants of one arm or of a stack of arms
# (ArmArrays) and the absolute link angles phi = L q, with any leading batch
# axes. The single-state functions below are their unbatched case.


def stack_arm_arrays(rows) -> ArmArrays:
    """Constants of a (B, k) grid of arms, stacked on two leading axes."""
    return ArmArrays(*(np.array([[p.arm[i] for p in row] for row in rows])
                       for i in range(len(ArmArrays._fields))))


def link_angles(q: np.ndarray) -> np.ndarray:
    """Absolute link angles phi = L q."""
    return np.add.accumulate(q, axis=-1)


_REVERSED = {-1: (Ellipsis, slice(None, None, -1)),
             -2: (Ellipsis, slice(None, None, -1), slice(None))}


def _suffix_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """L^T applied along axis -1 or -2: out[k] = sum over a >= k of x[a]."""
    rev = _REVERSED[axis]
    return x[rev].cumsum(axis=axis)[rev]


def _congruence(x: np.ndarray) -> np.ndarray:
    """L^T X L for a stack of (n, n) matrices X."""
    return _suffix_sum(_suffix_sum(x, -1), -2)


def _differences(phi: np.ndarray) -> np.ndarray:
    return phi[..., :, None] - phi[..., None, :]


def _link_inertia(arm: ArmArrays, diff: np.ndarray) -> np.ndarray:
    """A = G o cos(phi_a - phi_b), i.e. W_ab cos(phi_a - phi_b) + delta_ab I_a:
    M in link coordinates."""
    return arm.weights * np.cos(diff)


def inertia_kernel(arm: ArmArrays, phi: np.ndarray) -> np.ndarray:
    """M = L^T A L."""
    m = _congruence(_link_inertia(arm, _differences(phi)))
    return 0.5 * (m + np.swapaxes(m, -1, -2))  # kill rounding asymmetry


def _coriolis_factor(arm: ArmArrays, diff: np.ndarray) -> np.ndarray:
    """S = G o sin(phi_a - phi_b) = W o sin(phi_a - phi_b), the factor of every
    Coriolis quantity."""
    return arm.weights * np.sin(diff)


def gravity_kernel(arm: ArmArrays, phi: np.ndarray) -> np.ndarray:
    """Gravity torque L^T (g (masses @ lever) o cos(phi))."""
    return _suffix_sum(arm.gravity * np.cos(phi), -1)


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x solving a x = b for a stack of symmetric positive-definite (n, n)
    matrices a and a stack of (n,) right-hand sides b, as
    np.linalg.solve(a, b[..., None])[..., 0]. a's stack has as many axes as
    b's and need only broadcast to it: a matrix shared along an axis
    (length 1 there) is factored once.

    Both are copied once into a batch-last layout, (n, n, ...) and (n, ...),
    so each step of the elimination (a = L D L^T, D the pivots) is one
    contiguous ufunc over all the systems.
    Without pivoting the elimination is backward stable for positive-definite
    matrices (Golub & Van Loan, Matrix Computations, 4th ed., sec. 4.2), and
    every operation is elementwise along the stack, so a system's solution is
    bit-identical alone, in any stack and against a broadcast matrix. Raises
    np.linalg.LinAlgError if a pivot is zero or negative; a NaN pivot gives
    that system a NaN solution, as LAPACK's does.
    """
    n = b.shape[-1]
    m = a.transpose(-2, -1, *range(a.ndim - 2)).copy()
    x = b.transpose(-1, *range(b.ndim - 1)).copy()
    with np.errstate(divide="ignore", invalid="ignore"):   # a bad pivot raises below
        for j in range(n - 1):
            ratio = m[j + 1:, j] / m[j, j]
            m[j + 1:, j + 1:] -= ratio[:, None] * m[j, j + 1:]
            x[j + 1:] -= ratio * x[j]
        pivots = m.reshape(n * n, *m.shape[2:])[::n + 1]
        if (pivots <= 0).any():
            raise np.linalg.LinAlgError("matrix is not positive definite")
        for j in range(n - 1, -1, -1):   # back substitution, one unknown at a time
            x[j] /= pivots[j]
            x[:j] -= m[:j, j] * x[j]
    return x.transpose(*range(1, x.ndim), 0)


def acceleration_kernel(arm: ArmArrays, phi: np.ndarray, omega: np.ndarray,
                        u: np.ndarray, solve, out=None) -> np.ndarray:
    """qdd solving M qdd = u - C(q, qd) qd for u the torque net of gravity,
    given the link angles phi = L q and the link rates omega = L qd, so
    u = 0 at rest gives qdd = 0 exactly. Builds neither M nor C.

    ``solve(a, b)`` solves the link-coordinate systems A omega_dot = rhs,
    A = G o cos(phi_a - phi_b), for (..., n) right-hand sides: _spd_solve,
    which raises np.linalg.LinAlgError for a zero or negative pivot, or the
    engine's bare gufunc _solve1. With ``out``, an array of the right-hand
    side's shape, omega_dot is solved into it, qdd is formed there and it
    is returned; ``solve`` must then take it as a third argument, as a
    gufunc does. Under the engine's error state (all ignored) _solve1
    solves an exactly singular A to NaN instead of raising; both give a
    NaN A a NaN solution."""
    diff = _differences(phi)
    # the C routine np.einsum calls (optimize=False), without its wrapper
    rhs = u - _c_einsum("...ab,...b->...a", _coriolis_factor(arm, diff), omega * omega)
    # the slices are named views: an augmented assignment to a subscript
    # would copy the result back onto itself
    head = rhs[..., :-1]
    head -= u[..., 1:]   # L^-T u
    a = _link_inertia(arm, diff)
    acc = solve(a, rhs) if out is None else solve(a, rhs, out)   # omega_dot
    tail = acc[..., 1:]
    tail -= acc[..., :-1]   # L^-1; ufuncs buffer the overlapping operands
    return acc


def kinetic_kernel(arm: ArmArrays, phi: np.ndarray, qdot: np.ndarray) -> np.ndarray:
    """Kinetic energy 1/2 qd^T M qd = 1/2 omega^T A omega."""
    omega, a = link_angles(qdot), _link_inertia(arm, _differences(phi))
    return 0.5 * _c_einsum("...a,...ab,...b->...", omega, a, omega)


# --- single-state functions -----------------------------------------------


def mass_matrix(params: RobotParams, q) -> np.ndarray:
    """Symmetric positive-definite joint-space inertia matrix M(q)."""
    return inertia_kernel(params.arm, link_angles(_check_q(params, q)))


def coriolis_matrix(params: RobotParams, q, qdot) -> np.ndarray:
    """Coriolis/centrifugal matrix C = L^T S diag(L qd) L.

    It is the matrix of Christoffel symbols of the first kind of the
    factored inertia, so dM/dt - 2C is skew-symmetric and C(q, v) v grows
    at most quadratically in v.
    """
    phi = link_angles(_check_q(params, q))
    omega = link_angles(_check_q(params, qdot))
    return _congruence(_coriolis_factor(params.arm, _differences(phi)) * omega)


def potential_energy(params: RobotParams, q) -> float:
    """Gravitational potential energy [J], zero with all links horizontal."""
    phi = link_angles(_check_q(params, q))
    return float(params.arm.gravity @ np.sin(phi))


def gravity_vector(params: RobotParams, q) -> np.ndarray:
    """Configuration gradient of the potential energy (gravity torque)."""
    return gravity_kernel(params.arm, link_angles(_check_q(params, q)))


def forward_dynamics(params: RobotParams, state: RobotState, tau, f_ext=None) -> np.ndarray:
    """Joint accelerations qdd solving M qdd = tau + f_ext - C qd - gravity."""
    phi = link_angles(_check_q(params, state.q))
    u = _check_q(params, tau) - gravity_kernel(params.arm, phi)
    if f_ext is not None:
        u = u + _check_q(params, f_ext)
    try:
        return acceleration_kernel(params.arm, phi, link_angles(state.qdot), u, _spd_solve)
    except np.linalg.LinAlgError as exc:
        raise SingularInertiaError("inertia matrix is singular") from exc


def energies(params: RobotParams, state: RobotState) -> tuple[float, float]:
    """(kinetic, potential) energy of the robot in its current state [J]."""
    kinetic = kinetic_kernel(params.arm, link_angles(_check_q(params, state.q)), state.qdot)
    return float(kinetic), potential_energy(params, state.q)


# --- sampled bounds -------------------------------------------------------


def _growth_sums(arm: ArmArrays, phi: np.ndarray) -> np.ndarray:
    """t[k, m] = sum over a >= k and b >= m of S_ab.

    [C(q, v) v]_k is the quadratic form v^T G_k v with the symmetric
    G_k = L^T diag(sum_{a>=k} S_a.) L, whose entries are
    (G_k)_ij = t[k, max(i, j)].
    """
    d = _suffix_sum(_coriolis_factor(arm, _differences(phi)), -2)   # d[k] = sum_{a>=k} S_a.
    return _suffix_sum(d, -1)


def _spectral_growth(t: np.ndarray) -> np.ndarray:
    """Per-sample bound on ||C(q, v) v|| / ||v||^2 from the growth sums: the
    root sum of squares of the spectral radii of the forms G_k."""
    n = t.shape[-1]
    forms = t[..., np.maximum.outer(np.arange(n), np.arange(n))]
    radii = np.max(np.abs(np.linalg.eigvalsh(forms)), axis=-1)
    return np.sqrt(np.sum(radii**2, axis=-1))


def _coriolis_growth(arm: ArmArrays, phi: np.ndarray) -> np.ndarray:
    """Per-sample bound on ||C(q, v) v|| / ||v||^2 at the link angles phi,
    every form decomposed: the reference for the pruned maximum."""
    return _spectral_growth(_growth_sums(arm, phi))


def _growth_ceiling(t: np.ndarray) -> np.ndarray:
    """Per-sample upper bound on _spectral_growth(t) without a decomposition.

    A spectral radius is at most the Frobenius norm, and t[k, m] fills the
    2m + 1 entries of G_k whose larger index is m, so
    ||G_k||_F^2 = sum_m (2m + 1) t[k, m]^2.
    """
    return np.sqrt(np.einsum("...km,m->...", t * t, 2.0 * np.arange(t.shape[-1]) + 1.0))


def _configuration_grid(n: int, target: int) -> np.ndarray:
    """One point of each pair {q, -q} (mod 2 pi) of the grid with q_1 = 0 and
    per_joint values of each relative angle q_2..q_n (module docstring)."""
    if n == 1:
        return np.zeros((1, 1))
    per_joint = max(2, int(np.ceil(target ** (1.0 / n))))
    axis = np.linspace(-np.pi, np.pi, per_joint, endpoint=False)
    if per_joint % 2:  # put q = 0 on the grid; even counts hold it to rounding
        axis -= axis[per_joint // 2]
    shape = (per_joint,) * (n - 1)
    index = np.indices(shape).reshape(n - 1, -1)
    # -axis[i] is axis[mirror[i]] mod 2 pi; the flat index is the row-major
    # rank, so a point is kept when it comes no later than its mirror image
    mirror = (per_joint - per_joint % 2 - index) % per_joint
    keep = np.arange(index.shape[1]) <= np.ravel_multi_index(mirror, shape)
    grid = np.zeros((np.count_nonzero(keep), n))
    grid[:, 1:] = axis[index[:, keep].T]
    return grid


def derive_bounds(params: RobotParams) -> DerivedBounds:
    """Model bounds of one arm.

    The gravity caps are exact: every joint's gravity torque is largest in
    magnitude with all links horizontal. The inertia eigenvalues and the
    Coriolis growth are sampled on a grid over the relative angles
    q_2..q_n, uniform on [-pi, pi)^(n-1) and holding q = 0, with q_1 = 0;
    every quantity is invariant in q_1 and periodic in the others, so the
    grid covers the reachable set. M is even in q and the growth forms odd,
    so of each pair {q, -q} (mod 2 pi) of the grid only one point is
    sampled: the other gives the same inertia and growth. Sampled extremes
    carry a x1.05 margin (skipped when the inertia is
    configuration-independent, e.g. a single pendulum's).

    The growth is the exact maximum of _coriolis_growth over the grid. The
    inertia matrices of all samples are decomposed, but the Coriolis forms
    only of the samples whose _growth_ceiling reaches the running maximum:
    no other sample can raise it.
    """
    grid = _configuration_grid(params.n, _BOUND_GRID_TARGET)
    chunk = 2048
    lam_min, lam_max, growth_max = np.inf, -np.inf, 0.0
    arm = params.arm
    for start in range(0, grid.shape[0], chunk):
        phi = link_angles(grid[start : start + chunk])
        eigs = np.linalg.eigvalsh(inertia_kernel(arm, phi))
        lam_min = min(lam_min, float(eigs[:, 0].min()))
        lam_max = max(lam_max, float(eigs[:, -1].max()))
        # only a sample whose ceiling reaches the running maximum can raise it;
        # the slack covers rounding where the ceiling is exact (rank-1 forms)
        t = _growth_sums(arm, phi)
        ceiling = _growth_ceiling(t)
        growth_max = float(_spectral_growth(t[[ceiling.argmax()]]).max(initial=growth_max))
        reach = t[ceiling >= growth_max * (1.0 - 1e-9)]
        growth_max = float(_spectral_growth(reach).max(initial=growth_max))

    if lam_max - lam_min < 1e-12 * lam_max:
        inertia_min = inertia_max = lam_max
    else:
        inertia_min = lam_min / _BOUND_MARGIN
        inertia_max = lam_max * _BOUND_MARGIN
    return DerivedBounds(
        inertia_min=inertia_min,
        inertia_max=inertia_max,
        coriolis_gain=growth_max * _BOUND_MARGIN,
        gravity_caps=_readonly(gravity_kernel(arm, np.zeros(params.n))),
    )
