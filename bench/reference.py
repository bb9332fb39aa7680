"""Independent reference model of the two-arm closed loop (2-link arms only).

Written from the README controller table and the controllers.py docstring,
not from the package: the closed-form 2-link inertia and Coriolis terms, the
four laws with odd signed powers and magnitude-clipped saturations, and the
virtual state of C2/C4 as a massless point balancing its spring k_c against
its damper d_c. Gravity is left out: every law cancels it exactly. The
closed loop is integrated with scipy's adaptive DOP853 at tight tolerances,
restarting at each force discontinuity. Nothing here imports ftteleop.
"""

from __future__ import annotations

import configparser

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-11
ATOL = 1e-12


def _sig(x, p):
    return np.sign(x) * np.abs(x) ** p


def _sat(x, p, delta):
    return _sig(np.clip(x, -delta, delta), p)


def _vec(text):
    return np.array([float(tok) for tok in text.split("#")[0].replace(",", " ").split()])


def _per_robot(section, key):
    """(local, remote) per-joint gains from 'key' or 'key_local'/'key_remote'."""
    if key in section:
        value = _vec(section[key])
        return value, value
    if f"{key}_local" in section:
        return _vec(section[f"{key}_local"]), _vec(section[f"{key}_remote"])
    return None


def _limits(section):
    text = section.get("torque_limits", "unlimited").split("#")[0].strip()
    return None if text.lower() == "unlimited" else _vec(text)


def _force(section):
    kind = section.get("kind", "zero").split("#")[0].strip()
    out = {"kind": kind}
    for key in ("start", "stop"):
        if key in section:
            out[key] = float(section[key].split("#")[0])
    for key in ("amplitude", "stiffness", "damping", "anchor"):
        if key in section:
            out[key] = _vec(section[key])
    return out


def read_scenario_text(text: str) -> dict:
    """Plain numbers of a scenario file, read with the stdlib INI parser."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(text)
    ctl = ini["controller"]
    arm = {key: _vec(ini["robot.local"][key])
           for key in ("masses", "lengths", "com_offsets", "inertias")}
    for key in arm:
        if not np.array_equal(arm[key], _vec(ini["robot.remote"][key])):
            raise ValueError("the reference model assumes two identical arms")
    init = ini["initial"]
    spec = {
        "arm": arm,
        "variant": ctl["variant"].split("#")[0].strip().upper(),
        "r1": float(ctl["r1"].split("#")[0]),
        "r2": float(ctl["r2"].split("#")[0]),
        "k_s": _vec(ctl["k_s"]),
        "d_s": _per_robot(ctl, "d_s"),
        "k_c": _per_robot(ctl, "k_c"),
        "d_c": _per_robot(ctl, "d_c"),
        "delta_p": float(ctl["delta_p"].split("#")[0]) if "delta_p" in ctl else None,
        "delta_d": float(ctl["delta_d"].split("#")[0]) if "delta_d" in ctl else None,
        "q0": (_vec(init["q_local"]), _vec(init["q_remote"])),
        "horizon": float(ini["simulation"]["horizon"].split("#")[0]),
        "torque_limits": _limits(ini["robot.local"]),
        "forces": (_force(ini["forces.local"]) if ini.has_section("forces.local") else {"kind": "zero"},
                   _force(ini["forces.remote"]) if ini.has_section("forces.remote") else {"kind": "zero"}),
    }
    zeros = np.zeros(spec["q0"][0].size)
    spec["qd0"] = tuple(_vec(init[k]) if k in init else zeros for k in ("qdot_local", "qdot_remote"))
    spec["theta0"] = tuple(_vec(init[k]) if k in init else q
                           for k, q in zip(("theta_local", "theta_remote"), spec["q0"]))
    return spec


def _inertia(arm, q2):
    m1, m2 = arm["masses"]
    l1 = arm["lengths"][0]
    c1, c2 = arm["com_offsets"]
    i1, i2 = arm["inertias"]
    cos2 = np.cos(q2)
    m11 = i1 + i2 + m1 * c1**2 + m2 * (l1**2 + c2**2 + 2.0 * l1 * c2 * cos2)
    m12 = i2 + m2 * (c2**2 + l1 * c2 * cos2)
    m22 = i2 + m2 * c2**2
    return np.array([[m11, m12], [m12, m22]])


def _coriolis_times_velocity(arm, q2, qd):
    h = arm["masses"][1] * arm["lengths"][0] * arm["com_offsets"][1] * np.sin(q2)
    return np.array([-h * (2.0 * qd[0] * qd[1] + qd[1] ** 2), h * qd[0] ** 2])


def _external(force, t, q, qd):
    kind = force["kind"]
    if kind == "pulse" and force["start"] <= t < force["stop"]:
        return force["amplitude"]
    if kind == "spring_damper":
        f = -force["stiffness"] * (q - force["anchor"])
        if "damping" in force:
            f = f - force["damping"] * qd
        return f
    return np.zeros_like(q)


def closed_loop_rhs(spec):
    """Right-hand side f(t, x) of the closed loop, x = (q_l, q_r, qd_l, qd_r[, theta_l, theta_r])."""
    arm, variant = spec["arm"], spec["variant"]
    r1, r2 = spec["r1"], spec["r2"]
    p_pos, p_vel = (2.0 * r2 - r1) / r1, (2.0 * r2 - r1) / r2
    bounded = variant in ("C3", "C4")
    virtual = variant in ("C2", "C4")
    k_s = spec["k_s"]
    d_p, d_d = spec["delta_p"], spec["delta_d"]

    def spring(x, p, delta):
        return _sat(x, p, delta) if bounded else _sig(x, p)

    def f(t, x):
        q = (x[0:2], x[2:4])
        qd = (x[4:6], x[6:8])
        prop = k_s * spring(q[0] - q[1], p_pos, d_p)
        out_acc, out_theta = [], []
        for side, sign in ((0, -1.0), (1, 1.0)):
            tau = sign * prop
            if virtual:
                mismatch = x[8 + 2 * side:10 + 2 * side] - q[side]
                k_c, d_c = spec["k_c"][side], spec["d_c"][side]
                tau = tau + k_c * spring(mismatch, p_pos, d_d)
                # massless virtual point: d_c sig(theta_dot)^p_vel = -k_c spring(mismatch)
                out_theta.append(-_sig(k_c / d_c * spring(mismatch, p_pos, d_d), 1.0 / p_vel))
            else:
                tau = tau - spec["d_s"][side] * spring(qd[side], p_vel, d_d)
            rhs = tau + _external(spec["forces"][side], t, q[side], qd[side]) \
                - _coriolis_times_velocity(arm, q[side][1], qd[side])
            out_acc.append(np.linalg.solve(_inertia(arm, q[side][1]), rhs))
        return np.concatenate([qd[0], qd[1], *out_acc, *out_theta])

    return f


def final_state(spec: dict) -> dict:
    """Reference state at the horizon: q, qd (and theta) per arm."""
    x = np.concatenate([*spec["q0"], *spec["qd0"]])
    if spec["variant"] in ("C2", "C4"):
        x = np.concatenate([x, *spec["theta0"]])
    horizon = spec["horizon"]
    cuts = {0.0, horizon}
    for force in spec["forces"]:
        if force["kind"] == "pulse":
            cuts |= {min(max(force[k], 0.0), horizon) for k in ("start", "stop")}
    cuts = sorted(cuts)
    rhs = closed_loop_rhs(spec)
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        if t1 <= t0:
            continue
        sol = solve_ivp(rhs, (t0, t1), x, method="DOP853", rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        x = sol.y[:, -1]
    out = {"q_l": x[0:2], "q_r": x[2:4], "qd_l": x[4:6], "qd_r": x[6:8]}
    if x.size > 8:
        out["th_l"], out["th_r"] = x[8:10], x[10:12]
    return out


def max_deviation(reference: dict, trace) -> float:
    """Largest absolute gap between the reference and a trace's last sample."""
    return max(float(np.max(np.abs(getattr(trace, key)[-1] - value)))
               for key, value in reference.items())
