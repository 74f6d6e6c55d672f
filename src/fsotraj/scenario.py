"""Scenario files: INI-style sections with mandatory unit suffixes.

Sections are ``link``, ``aircraft``, ``jitter``, ``mission``, ``optimizer``
(and an optional ``pointing`` geometry for the analysis commands). Unknown
keys are rejected, units are validated per field, and missing fields take the
standard simulation defaults. The same format round-trips through
``dump_scenario``.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkParams
from .errors import ScenarioParseError
from .jitter import JitterCovariance
from .kinematics import AircraftParams, Posture
from .mission import CircularInit, OptimizerConfig, Scenario

# unit token -> (dimension, factor to SI)
_UNITS = {
    "m": ("length", 1.0),
    "cm": ("length", 1e-2),
    "mm": ("length", 1e-3),
    "km": ("length", 1e3),
    "nm": ("length", 1e-9),
    "um": ("length", 1e-6),
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "w": ("power", 1.0),
    "mw": ("power", 1e-3),
    "uw": ("power", 1e-6),
    "j": ("energy", 1.0),
    "kj": ("energy", 1e3),
    "mj": ("energy", 1e6),
    "rad": ("angle", 1.0),
    "mrad": ("angle", 1e-3),
    "urad": ("angle", 1e-6),
    "deg": ("angle", math.pi / 180.0),
    "m/s": ("speed", 1.0),
    "km/h": ("speed", 1.0 / 3.6),
    "m/s^2": ("acceleration", 1.0),
    "a": ("current", 1.0),
    "ma": ("current", 1e-3),
    "ua": ("current", 1e-6),
    "a/w": ("responsivity", 1.0),
    "db": ("decibel", 1.0),
    "kg": ("mass", 1.0),
    "kg/m": ("drag_lump", 1.0),
    "": ("dimensionless", 1.0),
}


def _parse_quantity(field_path: str, raw: str, dimension: str) -> float:
    parts = raw.strip().split()
    if len(parts) == 1:
        value_str, unit = parts[0], ""
    elif len(parts) == 2:
        value_str, unit = parts
    else:
        raise ScenarioParseError(field_path, f"cannot parse quantity {raw!r}")
    try:
        value = float(value_str)
    except ValueError as exc:
        raise ScenarioParseError(field_path, f"bad number {value_str!r}") from exc
    key = unit.lower()
    if key not in _UNITS:
        raise ScenarioParseError(field_path, f"unknown unit {unit!r}")
    dim, factor = _UNITS[key]
    if dim != dimension:
        raise ScenarioParseError(
            field_path, f"expected a {dimension} (got {unit!r}, a {dim})"
        )
    return value * factor


def _parse_point(field_path: str, raw: str) -> tuple[float, float]:
    # "54, 200 m": unit applies to both coordinates.
    body = raw.strip()
    parts = body.split()
    unit = ""
    if parts and parts[-1].lower() in _UNITS and _UNITS[parts[-1].lower()][0] == "length":
        unit = parts[-1]
        body = body[: body.rfind(unit)]
    coords = [c.strip() for c in body.split(",") if c.strip()]
    if len(coords) != 2:
        raise ScenarioParseError(field_path, f"expected 'x, y <unit>', got {raw!r}")
    factor = _UNITS[unit.lower()][1]
    try:
        return float(coords[0]) * factor, float(coords[1]) * factor
    except ValueError as exc:
        raise ScenarioParseError(field_path, f"bad coordinates {raw!r}") from exc


@dataclass
class PointingGeometry:
    """Standalone geometry for the pointing-error analysis commands."""

    position: np.ndarray = field(default_factory=lambda: np.array([50.0, 550.0, 600.0]))
    roll: float = 0.0
    pitch: float = math.radians(-10.0)
    yaw: float = 0.0

    @property
    def posture(self) -> Posture:
        return Posture(roll=self.roll, pitch=self.pitch, yaw=self.yaw)


@dataclass
class RunSettings:
    """Anything the CLI needs beyond the physical scenario."""

    scenario: Scenario
    optimizer: OptimizerConfig
    pointing: PointingGeometry


_FIELDS = {
    "link": {
        "transmit_power": ("power", "transmit_power"),
        "noise_std": ("current", "noise_std"),
        "pt_over_noise": ("decibel", None),  # alternative to noise_std
        "responsivity": ("responsivity", "responsivity"),
        "aperture": ("length", "aperture"),
        "divergence_std": ("angle", "sigma_div"),
        "log_amplitude_std": ("dimensionless", "sigma_i"),
        "visibility": ("length", "visibility"),
        "wavelength": ("length", "wavelength"),
    },
    "aircraft": {
        "c1": ("drag_lump", "c1"),
        "c2": ("dimensionless", "c2"),
        "gravity": ("acceleration", "g"),
        "mass": ("mass", "mass"),
        "v_min": ("speed", "v_min"),
        "v_max": ("speed", "v_max"),
        "a_max": ("acceleration", "a_max"),
    },
    "jitter": {
        "sigma_roll": ("angle", None),
        "sigma_pitch": ("angle", None),
        "sigma_yaw": ("angle", None),
        "rho_roll_pitch": ("dimensionless", None),
        "rho_pitch_yaw": ("dimensionless", None),
        "rho_yaw_roll": ("dimensionless", None),
    },
    "mission": {
        "kind": (None, None),
        "start": (None, None),
        "end": (None, None),
        "altitude": ("length", None),
        "duration": ("time", None),
        "slot": ("time", None),
        "launch_cost": ("energy", None),
        "init": (None, None),
        "circle_center": (None, None),
    },
    "optimizer": {
        "tol_dinkelbach_rel": ("dimensionless", "tol_dinkelbach_rel"),
        "max_outer": ("dimensionless", "max_outer"),
        "max_inner": ("dimensionless", "max_inner"),
        "solver_tol": ("dimensionless", "solver_tol"),
        "seed": ("dimensionless", None),
        "samples": ("dimensionless", None),
    },
    "pointing": {
        "position": (None, None),
        "roll": ("angle", None),
        "pitch": ("angle", None),
        "yaw": ("angle", None),
    },
}


def load_scenario(path_or_text) -> RunSettings:
    """Parse a scenario file (path or text); missing fields take the defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if hasattr(path_or_text, "read"):
        parser.read_file(path_or_text)
    else:
        text = str(path_or_text)
        if text == "" or "\n" in text or "=" in text:
            parser.read_string(text)
        elif not parser.read(text):
            raise ScenarioParseError(text, "scenario file not found")

    for section in parser.sections():
        if section not in _FIELDS:
            raise ScenarioParseError(section, "unknown section")
        for key in parser[section]:
            if key not in _FIELDS[section]:
                raise ScenarioParseError(f"{section}.{key}", "unknown key")

    def get(section, key):
        return parser.get(section, key, fallback=None)

    def quantity(section, key, default):
        raw = get(section, key)
        if raw is None:
            return default
        return _parse_quantity(f"{section}.{key}", raw, _FIELDS[section][key][0])

    # link
    link_kwargs = {}
    for key, (dim, attr) in _FIELDS["link"].items():
        if attr is None:
            continue
        raw = get("link", key)
        if raw is not None:
            link_kwargs[attr] = _parse_quantity(f"link.{key}", raw, dim)
    ratio_db = get("link", "pt_over_noise")
    if ratio_db is not None:
        if "noise_std" in link_kwargs:
            raise ScenarioParseError("link.pt_over_noise", "give either noise_std or pt_over_noise")
        db = _parse_quantity("link.pt_over_noise", ratio_db, "decibel")
        p_t = link_kwargs.get("transmit_power", LinkParams().transmit_power)
        link_kwargs["noise_std"] = p_t / 10.0 ** (db / 10.0)
    try:
        link = LinkParams(**link_kwargs)
    except ValueError as exc:
        raise ScenarioParseError("link", str(exc)) from exc

    # aircraft
    craft_kwargs = {}
    for key, (dim, attr) in _FIELDS["aircraft"].items():
        raw = get("aircraft", key)
        if raw is not None:
            craft_kwargs[attr] = _parse_quantity(f"aircraft.{key}", raw, dim)
    try:
        craft = AircraftParams(**craft_kwargs)
    except ValueError as exc:
        raise ScenarioParseError("aircraft", str(exc)) from exc

    # jitter
    sig = [
        quantity("jitter", "sigma_roll", 1.0e-3),
        quantity("jitter", "sigma_pitch", 0.3e-3),
        quantity("jitter", "sigma_yaw", 0.1e-3),
    ]
    rho = [
        quantity("jitter", "rho_roll_pitch", 0.0),
        quantity("jitter", "rho_pitch_yaw", 0.0),
        quantity("jitter", "rho_yaw_roll", 0.0),
    ]
    try:
        jitter = JitterCovariance(tuple(sig), tuple(rho))
    except ValueError as exc:
        raise ScenarioParseError("jitter", str(exc)) from exc

    # mission
    kind = (get("mission", "kind") or "moving").strip().lower()
    if kind not in ("moving", "hover"):
        raise ScenarioParseError("mission.kind", f"expected moving or hover, got {kind!r}")
    altitude = quantity("mission", "altitude", 600.0)
    slot = quantity("mission", "slot", 0.2)
    if kind == "moving":
        duration = quantity("mission", "duration", 20.0)
        start_xy = _parse_point("mission.start", get("mission", "start") or "54, 200 m")
        end_xy = _parse_point("mission.end", get("mission", "end") or "450, 200 m")
        launch = quantity("mission", "launch_cost", 1e5)
        default_init = "linear"
    else:
        duration = quantity("mission", "duration", 80.0)
        start_xy = _parse_point("mission.start", get("mission", "start") or "0, 0 m")
        end_xy = _parse_point("mission.end", get("mission", "end") or "0, 0 m")
        launch = quantity("mission", "launch_cost", 4e5)
        default_init = "circular"
    init_kind = (get("mission", "init") or default_init).strip().lower()
    if init_kind == "linear":
        initialization = "linear"
    elif init_kind == "circular":
        center = _parse_point(
            "mission.circle_center", get("mission", "circle_center") or "0, -60 m"
        )
        initialization = CircularInit(center_xy=center)
    else:
        raise ScenarioParseError("mission.init", f"expected linear or circular, got {init_kind!r}")
    n_slots = int(round(duration / slot))

    # optimizer
    opt_kwargs = {}
    for key in ("tol_dinkelbach_rel", "solver_tol"):
        raw = get("optimizer", key)
        if raw is not None:
            opt_kwargs[key] = _parse_quantity(f"optimizer.{key}", raw, "dimensionless")
    for key in ("max_outer", "max_inner"):
        raw = get("optimizer", key)
        if raw is not None:
            opt_kwargs[key] = int(float(raw))
    seed = int(float(get("optimizer", "seed") or 0))
    samples = int(float(get("optimizer", "samples") or 10**6))
    try:
        optimizer = OptimizerConfig(**opt_kwargs)
    except ValueError as exc:
        raise ScenarioParseError("optimizer", str(exc)) from exc

    scenario = Scenario(
        start=np.array([*start_xy, altitude]),
        end=np.array([*end_xy, altitude]),
        n_slots=n_slots,
        delta=slot,
        altitude=altitude,
        launch_cost=launch,
        link=link,
        aircraft=craft,
        jitter=jitter,
        initialization=initialization,
        seed=seed,
        mc_samples=samples,
    )

    pointing = PointingGeometry()
    if parser.has_section("pointing"):
        raw = get("pointing", "position")
        if raw is not None:
            parts = [p.strip() for p in raw.replace("m", "").split(",")]
            if len(parts) != 3:
                raise ScenarioParseError("pointing.position", f"expected 'x, y, z m', got {raw!r}")
            pointing.position = np.array([float(p) for p in parts])
        pointing.roll = quantity("pointing", "roll", pointing.roll)
        pointing.pitch = quantity("pointing", "pitch", pointing.pitch)
        pointing.yaw = quantity("pointing", "yaw", pointing.yaw)

    return RunSettings(scenario=scenario, optimizer=optimizer, pointing=pointing)


def _r(x) -> str:
    return repr(float(x))


def dump_scenario(settings: RunSettings) -> str:
    """Serialize settings in the same format load_scenario reads (SI units)."""
    sc = settings.scenario
    opt = settings.optimizer
    pt = settings.pointing
    kind = "hover" if np.allclose(sc.start, sc.end) else "moving"
    lines = [
        "[link]",
        f"transmit_power = {_r(sc.link.transmit_power)} W",
        f"noise_std = {_r(sc.link.noise_std)} A",
        f"responsivity = {_r(sc.link.responsivity)} A/W",
        f"aperture = {_r(sc.link.aperture)} m",
        f"divergence_std = {_r(sc.link.sigma_div)} rad",
        f"log_amplitude_std = {_r(sc.link.sigma_i)}",
        f"visibility = {_r(sc.link.visibility)} m",
        f"wavelength = {_r(sc.link.wavelength)} m",
        "",
        "[aircraft]",
        f"c1 = {_r(sc.aircraft.c1)} kg/m",
        f"c2 = {_r(sc.aircraft.c2)}",
        f"gravity = {_r(sc.aircraft.g)} m/s^2",
        f"mass = {_r(sc.aircraft.mass)} kg",
        f"v_min = {_r(sc.aircraft.v_min)} m/s",
        f"v_max = {_r(sc.aircraft.v_max)} m/s",
        f"a_max = {_r(sc.aircraft.a_max)} m/s^2",
        "",
        "[jitter]",
        f"sigma_roll = {_r(sc.jitter.sigma[0])} rad",
        f"sigma_pitch = {_r(sc.jitter.sigma[1])} rad",
        f"sigma_yaw = {_r(sc.jitter.sigma[2])} rad",
        f"rho_roll_pitch = {_r(sc.jitter.rho[0])}",
        f"rho_pitch_yaw = {_r(sc.jitter.rho[1])}",
        f"rho_yaw_roll = {_r(sc.jitter.rho[2])}",
        "",
        "[mission]",
        f"kind = {kind}",
        f"start = {_r(sc.start[0])}, {_r(sc.start[1])} m",
        f"end = {_r(sc.end[0])}, {_r(sc.end[1])} m",
        f"altitude = {_r(sc.altitude)} m",
        f"duration = {_r(sc.duration)} s",
        f"slot = {_r(sc.delta)} s",
        f"launch_cost = {_r(sc.launch_cost)} J",
    ]
    if isinstance(sc.initialization, CircularInit):
        lines.append("init = circular")
        lines.append(
            f"circle_center = {_r(sc.initialization.center_xy[0])}, {_r(sc.initialization.center_xy[1])} m"
        )
    else:
        lines.append("init = linear")
    lines += [
        "",
        "[optimizer]",
        f"tol_dinkelbach_rel = {_r(opt.tol_dinkelbach_rel)}",
        f"max_outer = {opt.max_outer}",
        f"max_inner = {opt.max_inner}",
        f"solver_tol = {_r(opt.solver_tol)}",
        f"seed = {sc.seed}",
        f"samples = {sc.mc_samples}",
        "",
        "[pointing]",
        f"position = {_r(pt.position[0])}, {_r(pt.position[1])}, {_r(pt.position[2])} m",
        f"roll = {_r(pt.roll)} rad",
        f"pitch = {_r(pt.pitch)} rad",
        f"yaw = {_r(pt.yaw)} rad",
        "",
    ]
    return "\n".join(lines)
