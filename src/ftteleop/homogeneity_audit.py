"""Numerical audit of the closed loop's weighted-homogeneity structure.

The shaped closed loop splits into a dilation-homogeneous core and a
remainder. The core freezes the inertia matrix at a consensus position and
keeps only the shaped spring and damping terms; it scales exactly under the
anisotropic dilation with degree r2 - r1 (negative in the finite-time
regime). The remainder - Coriolis forces plus the configuration dependence
of the inertia - must fade faster than the core as the dilation shrinks
toward the origin.

Both facts are audited by sampling: an exact degree check on the core, and a
shrinking-dilation sweep measuring the worst remainder over a fixed sphere
of directions. Sampling can falsify but not certify the limit; the audit is
evidence for the structure, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm, qmc

from .controllers import LOCAL, REMOTE, ControllerConfig, ControllerState, control_action
from .robot_dynamics import (
    RobotParams,
    RobotState,
    SingularInertiaError,
    forward_dynamics,
    mass_matrix,
)
from .scalar_ops import dilate, signed_pow

__all__ = [
    "HomogeneitySpec",
    "sphere_points",
    "stacked_weights",
    "homogeneous_field",
    "homogeneous_part",
    "full_field",
    "check_degree",
    "vanishing_sweep",
    "fitted_decay_slope",
]


def stacked_weights(config: ControllerConfig, n: int) -> np.ndarray:
    """Dilation weights of the stacked closed-loop state.

    Layout (err coordinates relative to the consensus position): position
    blocks of both robots get r1, velocity blocks r2; C2/C4 append the
    virtual-mismatch blocks, also weighted r1.
    """
    r1, r2 = config.weights.r1, config.weights.r2
    w = [r1] * (2 * n) + [r2] * (2 * n)
    if config.has_virtual_state:
        w += [r1] * (2 * n)
    return np.array(w)


@dataclass(frozen=True, eq=False)
class HomogeneitySpec:
    """Sampling plan for one audit: weights, claimed degree, sphere size and
    the decreasing dilation grid."""

    weights: np.ndarray
    degree: float
    samples: int = 256
    eps_grid: np.ndarray = field(default_factory=lambda: np.geomspace(1.0, 1e-3, 13))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, float))
        object.__setattr__(self, "eps_grid", np.asarray(self.eps_grid, float))
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if np.any(self.eps_grid <= 0) or np.any(np.diff(self.eps_grid) >= 0):
            raise ValueError("eps grid must be strictly decreasing positive reals")

    @classmethod
    def for_config(cls, config: ControllerConfig, n: int, samples: int = 256,
                   eps_grid=None, seed: int = 0) -> "HomogeneitySpec":
        kwargs = {}
        if eps_grid is not None:
            kwargs["eps_grid"] = eps_grid
        return cls(
            weights=stacked_weights(config, n),
            degree=config.weights.degree,
            samples=samples,
            seed=seed,
            **kwargs,
        )


def sphere_points(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere.

    Scrambled Sobol points mapped through the normal quantile and
    normalized; identical (dim, count, seed) always give the same set.
    """
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = int(np.ceil(np.log2(max(count, 2))))
    pts = sampler.random_base2(m)[:count]
    z = norm.ppf(pts)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / norms


def _split(config: ControllerConfig, x: np.ndarray, n: int):
    tq_l, tq_r = x[0:n], x[n:2 * n]
    qd_l, qd_r = x[2 * n:3 * n], x[3 * n:4 * n]
    tt_l = tt_r = None
    if config.has_virtual_state:
        tt_l, tt_r = x[4 * n:5 * n], x[5 * n:6 * n]
    return tq_l, tq_r, qd_l, qd_r, tt_l, tt_r


def homogeneous_field(config: ControllerConfig, params_l: RobotParams,
                      params_r: RobotParams, q_c: np.ndarray):
    """Dilation-homogeneous core of the closed loop, inertia frozen at q_c.

    Returns a callable mapping the stacked error-coordinate state to its
    time derivative. Saturations never enter the core: near the origin the
    bounded variants coincide with their unbounded counterparts.
    """
    q_c = np.asarray(q_c, float)
    n = params_l.n
    inv_l = np.linalg.inv(mass_matrix(params_l, q_c))
    inv_r = np.linalg.inv(mass_matrix(params_r, q_c))
    if not (np.all(np.isfinite(inv_l)) and np.all(np.isfinite(inv_r))):
        raise SingularInertiaError("frozen inertia matrix is singular at the consensus position")
    cfg = config
    p_pos, p_vel = cfg.p_pos, cfg.p_vel
    theta_exp = cfg.weights.theta_exponent

    def core(x: np.ndarray) -> np.ndarray:
        tq_l, tq_r, qd_l, qd_r, tt_l, tt_r = _split(cfg, np.asarray(x, float), n)
        err = signed_pow(tq_l - tq_r, p_pos)
        if cfg.uses_velocity:
            acc_l = -inv_l @ (cfg.k_s * err + cfg.d_s[LOCAL] * signed_pow(qd_l, p_vel))
            acc_r = -inv_r @ (-cfg.k_s * err + cfg.d_s[REMOTE] * signed_pow(qd_r, p_vel))
            return np.concatenate([qd_l, qd_r, acc_l, acc_r])
        acc_l = -inv_l @ (cfg.k_s * err - cfg.k_c[LOCAL] * signed_pow(tt_l, p_pos))
        acc_r = -inv_r @ (-cfg.k_s * err - cfg.k_c[REMOTE] * signed_pow(tt_r, p_pos))
        rate_l = (cfg.k_c[LOCAL] / cfg.d_c[LOCAL]) ** (1.0 / p_vel)
        rate_r = (cfg.k_c[REMOTE] / cfg.d_c[REMOTE]) ** (1.0 / p_vel)
        td_l = -rate_l * signed_pow(tt_l, theta_exp) - qd_l
        td_r = -rate_r * signed_pow(tt_r, theta_exp) - qd_r
        return np.concatenate([qd_l, qd_r, acc_l, acc_r, td_l, td_r])

    return core


def homogeneous_part(config, params_l, params_r, q_c, point) -> np.ndarray:
    """Evaluate the frozen-inertia core at one stacked state."""
    return homogeneous_field(config, params_l, params_r, q_c)(point)


def full_field(config: ControllerConfig, params_l: RobotParams,
               params_r: RobotParams, q_c: np.ndarray):
    """The complete free-motion closed loop in error coordinates around q_c.

    Gravity cancels exactly inside the torque laws, so the field depends on
    q_c only through the configuration-varying inertia and Coriolis terms.
    """
    q_c = np.asarray(q_c, float)
    n = params_l.n
    cfg = config

    def field_fn(x: np.ndarray) -> np.ndarray:
        tq_l, tq_r, qd_l, qd_r, tt_l, tt_r = _split(cfg, np.asarray(x, float), n)
        state_l = RobotState(q=tq_l + q_c, qdot=qd_l)
        state_r = RobotState(q=tq_r + q_c, qdot=qd_r)
        ctrl = None
        if cfg.has_virtual_state:
            ctrl = ControllerState(theta_l=tt_l + state_l.q, theta_r=tt_r + state_r.q)
        action = control_action(cfg, params_l, params_r, state_l, state_r, ctrl)
        out = [qd_l, qd_r]
        for params, state, tau in ((params_l, state_l, action.tau_l),
                                   (params_r, state_r, action.tau_r)):
            out.append(forward_dynamics(params, state, tau))
        if cfg.has_virtual_state:
            out.append(action.theta_dot_l - qd_l)
            out.append(action.theta_dot_r - qd_r)
        return np.concatenate(out)

    return field_fn


def check_degree(field_fn, spec: HomogeneitySpec, points: np.ndarray | None = None,
                 out_weights: np.ndarray | None = None) -> float:
    """Worst relative defect of the claimed dilation scaling.

    For each sampled direction x and each grid epsilon, compares
    field(dilate(x)) against eps^(degree + w_j) field_j(x) component-wise,
    relative to |field_j(x)| with a 1e-12 absolute floor. An exactly
    homogeneous field returns rounding-level defects.
    """
    w_in = spec.weights
    w_out = w_in if out_weights is None else np.asarray(out_weights, float)
    if points is None:
        points = sphere_points(w_in.size, spec.samples, spec.seed)
    worst = 0.0
    for x in points:
        fx = np.asarray(field_fn(x), float)
        floor = np.abs(fx) + 1e-12
        for eps in spec.eps_grid:
            fd = np.asarray(field_fn(dilate(x, w_in, eps)), float)
            defect = np.abs(fd - eps ** (spec.degree + w_out) * fx) / floor
            worst = max(worst, float(defect.max()))
    return worst


def vanishing_sweep(config: ControllerConfig, params_l: RobotParams,
                    params_r: RobotParams, q_c, spec: HomogeneitySpec):
    """Worst back-scaled difference between the full loop and its core.

    For each grid epsilon, evaluates the full field at the dilated sphere
    samples, undoes the dilation and degree scaling, and measures the
    largest norm distance to the core. A sound homogeneous approximation
    sends the column to zero as epsilon does.

    Returns (eps_grid, deviations).
    """
    core = homogeneous_field(config, params_l, params_r, q_c)
    full = full_field(config, params_l, params_r, q_c)
    points = sphere_points(spec.weights.size, spec.samples, spec.seed)
    core_values = [core(x) for x in points]
    devs = np.empty(spec.eps_grid.size)
    for i, eps in enumerate(spec.eps_grid):
        back = eps ** -(spec.degree + spec.weights)
        sup = 0.0
        for x, fx in zip(points, core_values):
            fd = full(dilate(x, spec.weights, eps))
            if not np.all(np.isfinite(fd)):
                raise FloatingPointError(f"full field non-finite at eps={eps}")
            sup = max(sup, float(np.linalg.norm(back * fd - fx)))
        devs[i] = sup
    return spec.eps_grid.copy(), devs


def fitted_decay_slope(eps: np.ndarray, devs: np.ndarray, decade: float = 10.0) -> float:
    """Log-log slope of the sweep over its final decade of epsilon."""
    eps = np.asarray(eps, float)
    devs = np.asarray(devs, float)
    mask = eps <= eps.min() * decade * (1 + 1e-9)
    if mask.sum() < 2:
        raise ValueError("need at least two grid points in the final decade")
    return float(np.polyfit(np.log(eps[mask]), np.log(devs[mask]), 1)[0])
