"""Scenario files: a plain nested key-value grammar for complete runs.

A scenario file is INI-style text with '#' comments. Sections:

    [robot.local] / [robot.remote]
        masses, lengths, com_offsets, inertias   comma-separated per link
        gravity                                  m/s^2 (0 = horizontal plane)
        torque_limits                            per-joint list or 'unlimited'

    [controller]
        variant      C1 | C2 | C3 | C4
        r1, r2       homogeneity weight pair (r1 = r2 gives the linear laws)
        k_s          shared stiffness, scalar or per-joint
        d_s          C1/C3 damping; d_s_local / d_s_remote override per robot
        k_c, d_c     C2/C4 virtual-state gains; *_local / *_remote overrides
        delta_p, delta_d   C3/C4 saturation levels

    [initial]
        q_local, q_remote            start positions [rad]
        qdot_local, qdot_remote     optional, default rest
        theta_local, theta_remote    C2/C4 only, optional, default = start positions

    [forces.local] / [forces.remote]
        kind = zero | pulse | spring_damper
        pulse:          start, stop [s], amplitude per joint [N m]
        spring_damper:  stiffness, damping (>= 0), anchor [rad]

    [simulation]
        horizon, dt, decimation [s]; integrator = euler | rk4; delay [s]
        (horizon, decimation and delay each a whole number of dt steps; a
        nonzero delay requires the euler integrator)

    [output]  (optional)
        trace, report, audit        output file paths (Scenario.<key>_path)

The parser only parses: it reports syntax errors, values that are not
numbers, and missing or unknown keys and sections, and converts the rest into
the library types, which validate themselves (ControllerConfig its gains,
ForceProfile its vectors, Scenario every rule across its parts). Loading
reports every problem at once, naming the broken condition. Binary content is
rejected.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import replace
from importlib import resources

import numpy as np

from .closed_loop_sim import (
    _INITIAL_FIELDS,
    _SIMULATION_NUMBERS,
    ForceProfile,
    Scenario,
    ScenarioError,
    _scenario_problems,
)
from .controllers import ControllerConfig
from .robot_dynamics import RobotParams
from .scalar_ops import Weights

__all__ = [
    "ScenarioError",
    "load_scenario",
    "parse_scenario",
    "dump_scenario",
    "with_weights",
    "bundled_scenario_names",
    "read_bundled_scenario",
]

# per-link vectors of a [robot.*] section, named as the RobotParams fields
_LINK_KEYS = ("masses", "lengths", "com_offsets", "inertias")
# [output] keys; each path is the Scenario field <key>_path
_OUTPUT_KEYS = ("trace", "report", "audit")
# each side's section suffix, with its Scenario field suffix
_SIDES = (("local", "l"), ("remote", "r"))


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


def _fmt(value) -> str:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    return ", ".join(repr(float(v)) for v in arr)


class _SectionReader:
    """Pulls typed values out of one section, accumulating problems."""

    def __init__(self, parser, section: str, problems: list):
        self.section = section
        self.problems = problems
        self.data = dict(parser[section]) if parser.has_section(section) else None

    def missing(self, required: bool = False) -> bool:
        """Whether the section is absent; an absent required one is a problem."""
        if self.data is None and required:
            self.problems.append(f"missing section [{self.section}]")
        return self.data is None

    def problem(self, text: str) -> None:
        self.problems.append(f"[{self.section}] {text}")

    def get(self, key: str, default=None, required: bool = False):
        if self.data is None:
            return default
        if key not in self.data:
            if required:
                self.problem(f"missing required key '{key}'")
            return default
        return self.data.pop(key)

    def floats(self, key: str, default=None, required: bool = False):
        raw = self.get(key, required=required)
        if raw is None:
            return default
        try:
            return _floats(raw)
        except ValueError:
            self.problem(f"{key}: cannot parse '{raw}' as numbers")
            return default

    def scalar(self, key: str, default=None, required: bool = False):
        raw = self.get(key, required=required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            self.problem(f"{key}: cannot parse '{raw}' as a number")
            return default

    def leftovers(self):
        if self.data:
            for key in self.data:
                self.problem(f"unknown key '{key}'")


def _read_robot(reader: _SectionReader) -> RobotParams | None:
    if reader.missing(required=True):
        return None
    links = {key: reader.floats(key, required=True) for key in _LINK_KEYS}
    gravity = reader.scalar("gravity", default=RobotParams.gravity)
    limits_raw = reader.get("torque_limits", default="unlimited")
    reader.leftovers()
    if any(v is None for v in links.values()):
        return None
    limits = None
    if str(limits_raw).strip().lower() != "unlimited":
        try:
            limits = _floats(str(limits_raw))
        except ValueError:
            reader.problem("torque_limits: need numbers or 'unlimited'")
            return None
    try:
        return RobotParams(**links, gravity=gravity, torque_limits=limits)
    except ValueError as exc:
        reader.problem(str(exc))
        return None


def _read_per_robot(reader: _SectionReader, key: str):
    """A gain given as 'key' (both robots) or key_local/key_remote pair."""
    base = reader.floats(key)
    local = reader.floats(f"{key}_local")
    remote = reader.floats(f"{key}_remote")
    if local is None and remote is None:
        return base
    if base is not None:
        reader.problem(f"give either '{key}' or the _local/_remote pair, not both")
        return None
    if local is None or remote is None:
        reader.problem(f"{key}_local and {key}_remote must be given together")
        return None
    try:
        return np.vstack(np.broadcast_arrays(local, remote))
    except ValueError:
        reader.problem(f"{key}_local and {key}_remote have different lengths")
        return None


def _read_controller(reader: _SectionReader, n: int) -> ControllerConfig | None:
    if reader.missing(required=True):
        return None
    variant = (reader.get("variant", required=True) or "").strip().upper()
    r1 = reader.scalar("r1", required=True)
    r2 = reader.scalar("r2", required=True)
    k_s = reader.floats("k_s", required=True)
    problems_before = len(reader.problems)
    d_s = _read_per_robot(reader, "d_s")
    k_c = _read_per_robot(reader, "k_c")
    d_c = _read_per_robot(reader, "d_c")
    # a gain that failed to read is not missing: building would say it is
    gains_failed = len(reader.problems) > problems_before
    delta_p = reader.scalar("delta_p")
    delta_d = reader.scalar("delta_d")
    reader.leftovers()
    if None in (r1, r2) or k_s is None or gains_failed:
        return None
    try:
        # a per-joint k_s sets the controller's joint count, a scalar takes n
        return ControllerConfig(variant, Weights(r1=r1, r2=r2), k_s.size if k_s.size > 1 else n,
                                k_s, d_s, k_c, d_c, delta_p, delta_d)
    except ValueError as exc:
        reader.problem(str(exc))
        return None


def _read_profile(reader: _SectionReader) -> ForceProfile:
    if reader.missing():
        return ForceProfile()
    kind = (reader.get("kind", default="zero") or "zero").strip().lower()
    kwargs = {}
    if kind == "pulse":
        kwargs = dict(start=reader.scalar("start", default=0.0),
                      stop=reader.scalar("stop", default=0.0),
                      amplitude=reader.floats("amplitude", required=True))
    elif kind == "spring_damper":
        kwargs = dict(stiffness=reader.floats("stiffness", required=True),
                      damping=reader.floats("damping"),
                      anchor=reader.floats("anchor", required=True))
    reader.leftovers()
    try:
        return ForceProfile(kind=kind, **kwargs)
    except ValueError as exc:
        reader.problem(str(exc))
        return ForceProfile()


def parse_scenario(text: str, label: str = "scenario") -> Scenario:
    """Parse scenario text into a validated Scenario; raises
    ScenarioError with the complete list of problems on failure."""
    if "\x00" in text:
        raise ScenarioError(["binary content rejected: scenario files are plain text"])
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(text, source=label)
    except configparser.Error as exc:
        if getattr(exc, "section", None) is None:
            raise ScenarioError([str(exc)]) from exc
        given = "section" if getattr(exc, "option", None) is None else f"key '{exc.option}'"
        raise ScenarioError([f"[{exc.section}] {given} given twice (line {exc.lineno})"]) from exc

    problems: list[str] = []
    parts = {"label": label}   # Scenario field name -> value
    for side, name in _SIDES:
        parts[f"params_{name}"] = _read_robot(_SectionReader(parser, f"robot.{side}", problems))

    # read the controller block even when a robot block failed: infer the
    # joint count from whatever source is available so all errors surface
    n = next((p.n for p in (parts["params_l"], parts["params_r"]) if p is not None), None)
    if n is None:
        try:
            n = _floats(parser.get("initial", "q_local")).size
        except (configparser.Error, ValueError):
            n = 1

    parts["config"] = _read_controller(_SectionReader(parser, "controller", problems), n)

    init = _SectionReader(parser, "initial", problems)
    init.missing(required=True)
    for key, name in _INITIAL_FIELDS:
        parts[name] = init.floats(key, required=key in ("q_local", "q_remote"))
    init.leftovers()

    for side, name in _SIDES:
        parts[f"profile_{name}"] = _read_profile(
            _SectionReader(parser, f"forces.{side}", problems))

    sim = _SectionReader(parser, "simulation", problems)
    for key in _SIMULATION_NUMBERS:
        parts[key] = sim.scalar(key, default=getattr(Scenario, key))
    parts["integrator"] = (sim.get("integrator") or Scenario.integrator).strip().lower()
    sim.leftovers()

    out = _SectionReader(parser, "output", problems)
    for key in _OUTPUT_KEYS:
        parts[f"{key}_path"] = out.get(key)
    out.leftovers()

    known = {"robot.local", "robot.remote", "controller", "initial",
             "forces.local", "forces.remote", "simulation", "output"}
    for section in parser.sections():
        if section not in known:
            problems.append(f"unknown section [{section}]")

    # with every part parsed, the Scenario constructor runs the rules
    # across the parts; otherwise run them here so every problem is listed
    if problems:
        raise ScenarioError(problems + _scenario_problems(parts))
    return Scenario(**parts)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"binary content rejected: {exc}"]) from exc
    label = str(path).rsplit("/", 1)[-1]
    if label.endswith(".cfg"):
        label = label[:-4]
    return parse_scenario(text, label=label)


def _profile_lines(profile: ForceProfile) -> list[str]:
    lines = [f"kind = {profile.kind}"]
    if profile.kind == "pulse":
        lines += [f"start = {profile.start!r}", f"stop = {profile.stop!r}",
                  f"amplitude = {_fmt(profile.amplitude)}"]
    elif profile.kind == "spring_damper":
        lines.append(f"stiffness = {_fmt(profile.stiffness)}")
        if profile.damping is not None:
            lines.append(f"damping = {_fmt(profile.damping)}")
        lines.append(f"anchor = {_fmt(profile.anchor)}")
    return lines


def dump_scenario(cfg: Scenario) -> str:
    """Serialize a scenario to canonical file text (floats via repr, so a
    reload is semantically identical)."""
    buf = io.StringIO()

    def section(name, lines):
        buf.write(f"[{name}]\n")
        for line in lines:
            buf.write(line + "\n")
        buf.write("\n")

    for name, params in (("robot.local", cfg.params_l), ("robot.remote", cfg.params_r)):
        limits = "unlimited" if params.torque_limits is None else _fmt(params.torque_limits)
        section(name, [f"{key} = {_fmt(getattr(params, key))}" for key in _LINK_KEYS]
                + [f"gravity = {params.gravity!r}", f"torque_limits = {limits}"])

    ctl = cfg.config
    lines = [f"variant = {ctl.variant}", f"r1 = {ctl.weights.r1!r}", f"r2 = {ctl.weights.r2!r}",
             f"k_s = {_fmt(ctl.k_s)}"]
    for key, arr in (("d_s", ctl.d_s), ("k_c", ctl.k_c), ("d_c", ctl.d_c)):
        if arr is None:
            continue
        if np.array_equal(arr[0], arr[1]):
            lines.append(f"{key} = {_fmt(arr[0])}")
        else:
            lines.append(f"{key}_local = {_fmt(arr[0])}")
            lines.append(f"{key}_remote = {_fmt(arr[1])}")
    if ctl.delta_p is not None:
        lines.append(f"delta_p = {ctl.delta_p!r}")
    if ctl.delta_d is not None:
        lines.append(f"delta_d = {ctl.delta_d!r}")
    section("controller", lines)

    initial = {key: getattr(cfg, name) for key, name in _INITIAL_FIELDS}
    section("initial", [f"{key} = {_fmt(vec)}" for key, vec in initial.items() if vec is not None])

    section("forces.local", _profile_lines(cfg.profile_l))
    section("forces.remote", _profile_lines(cfg.profile_r))

    section("simulation", [f"horizon = {cfg.horizon!r}", f"dt = {cfg.dt!r}",
                           f"decimation = {cfg.decimation!r}", f"integrator = {cfg.integrator}",
                           f"delay = {cfg.delay!r}"])

    paths = {key: getattr(cfg, f"{key}_path") for key in _OUTPUT_KEYS}
    out_lines = [f"{key} = {path}" for key, path in paths.items() if path]
    if out_lines:
        section("output", out_lines)
    return buf.getvalue()


def with_weights(cfg: Scenario, r1: float, r2: float) -> Scenario:
    """Same scenario with a different weight pair (gains untouched)."""
    return replace(cfg, config=replace(cfg.config, weights=Weights(r1=r1, r2=r2)))


def bundled_scenario_names() -> list[str]:
    files = resources.files("ftteleop.configs")
    return sorted(p.name for p in files.iterdir() if p.name.endswith(".cfg"))


def read_bundled_scenario(name: str) -> Scenario:
    """Load one of the scenarios shipped with the package."""
    if not name.endswith(".cfg"):
        name = name + ".cfg"
    text = resources.files("ftteleop.configs").joinpath(name).read_text(encoding="utf-8")
    return parse_scenario(text, label=name[:-4])
