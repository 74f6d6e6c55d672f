"""Scenario files: INI-style sections with mandatory unit suffixes.

Sections are ``link``, ``aircraft``, ``jitter``, ``mission``, ``optimizer``
(and an optional ``pointing`` geometry for the analysis commands). Each key
is one entry of ``_FIELDS``: its kind (a quantity of one dimension, an
integer, a choice, a 2-D point or a 3-D position) and the attribute its
value lands on. ``load_scenario`` and ``dump_scenario`` both walk that table.
Unknown sections and keys are rejected; quantities and coordinates must be
finite, in a unit of the key's dimension, and unit tokens are case-sensitive
as SI prefixes are (``mW``, never ``MW``). Every failure raises
`ScenarioParseError` with the dotted field path. A key a file leaves out
takes its dataclass's default, and a mission key the preset that
``mission.kind`` names. The echo writes each value in its SI unit.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .channel import LinkParams
from .errors import InfeasibleScenarioError, ScenarioParseError
from .jitter import JitterCovariance
from .kinematics import AircraftParams, Posture
from .mission import CircularInit, OptimizerConfig, Scenario

# unit token -> (dimension, factor to SI). Each dimension has one unit of
# factor 1, its SI unit, which the echo writes.
_UNITS = {
    "m": ("length", 1.0),
    "cm": ("length", 1e-2),
    "mm": ("length", 1e-3),
    "km": ("length", 1e3),
    "nm": ("length", 1e-9),
    "um": ("length", 1e-6),
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "W": ("power", 1.0),
    "mW": ("power", 1e-3),
    "uW": ("power", 1e-6),
    "J": ("energy", 1.0),
    "kJ": ("energy", 1e3),
    "MJ": ("energy", 1e6),
    "rad": ("angle", 1.0),
    "mrad": ("angle", 1e-3),
    "urad": ("angle", 1e-6),
    "deg": ("angle", math.pi / 180.0),
    "m/s": ("speed", 1.0),
    "km/h": ("speed", 1.0 / 3.6),
    "m/s^2": ("acceleration", 1.0),
    "A": ("current", 1.0),
    "mA": ("current", 1e-3),
    "uA": ("current", 1e-6),
    "A/W": ("responsivity", 1.0),
    "dB": ("decibel", 1.0),
    "kg": ("mass", 1.0),
    "kg/m": ("drag_lump", 1.0),
    "": ("dimensionless", 1.0),
}
_SI = {dimension: token for token, (dimension, factor) in _UNITS.items() if factor == 1.0}
_FOLDED = {token.lower(): token for token in _UNITS}  # names the token a wrong-case unit was meant to be


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


class _Kind(NamedTuple):
    parse: Callable[[str, str], object]  # (field path, raw text) -> value; raises ScenarioParseError
    show: Callable[[object], str]  # value -> echo text


def _number(path: str, text: str, factor: float = 1.0) -> float:
    """The number ``text`` times ``factor``, which must be finite."""
    try:
        value = float(text) * factor
    except ValueError:
        raise ScenarioParseError(path, f"bad number {text!r}") from None
    if not math.isfinite(value):
        raise ScenarioParseError(path, f"expected a finite number, got {text!r}")
    return value


def _factor(path: str, unit: str, dimension: str) -> float:
    if unit not in _UNITS:
        hint = f" (units are case-sensitive: {_FOLDED[unit.lower()]!r}?)" if unit.lower() in _FOLDED else ""
        raise ScenarioParseError(path, f"unknown unit {unit!r}{hint}")
    dim, factor = _UNITS[unit]
    if dim != dimension:
        raise ScenarioParseError(path, f"expected a {dimension} (got {unit!r}, a {dim})")
    return factor


def _quantity(dimension: str) -> _Kind:
    def parse(path, raw):
        parts = raw.split()
        if len(parts) not in (1, 2):
            raise ScenarioParseError(path, f"cannot parse quantity {raw!r}")
        return _number(path, parts[0], _factor(path, "".join(parts[1:]), dimension))

    return _Kind(parse, lambda value: f"{float(value)!r} {_SI[dimension]}".rstrip())


def _integer(minimum: int | None = None) -> _Kind:
    def parse(path, raw):
        try:
            value = int(raw)
        except ValueError:
            number = _number(path, raw)
            if not number.is_integer():
                raise ScenarioParseError(path, f"expected an integer, got {raw!r}") from None
            value = int(number)
        if minimum is not None and value < minimum:
            raise ScenarioParseError(path, f"must be at least {minimum}, got {value}")
        return value

    return _Kind(parse, str)


def _choice(*options: str) -> _Kind:
    def parse(path, raw):
        value = raw.strip().lower()
        if value not in options:
            raise ScenarioParseError(path, f"expected {' or '.join(options)}, got {value!r}")
        return value

    return _Kind(parse, str)


def _point(n: int, build) -> _Kind:
    # "54, 200 m": one length unit after the last coordinate applies to all.
    def parse(path, raw):
        *head, last = raw.split(",")
        tail = last.split()
        if len(head) != n - 1 or len(tail) != 2:
            raise ScenarioParseError(path, f"expected '{', '.join('xyz'[:n])} <unit>', got {raw!r}")
        factor = _factor(path, tail[1], "length")
        return build([_number(path, c, factor) for c in (*head, tail[0])])

    return _Kind(parse, lambda value: ", ".join(repr(float(c)) for c in value) + " m")


_POINT = _point(2, tuple)
_POSITION = _point(3, np.array)

# Mission presets: ``mission.kind`` picks one, and every mission key a file
# leaves out takes that preset's text. The first is the default.
_MISSIONS = ("moving", "hover")


class _Field(NamedTuple):
    """One scenario key: how its text parses and where its value lands.

    The value lands on attribute ``attr`` (the key's own name by default) of
    ``owner`` (the section by default; ``mission`` is the `Scenario`, ``circle``
    the `CircularInit`), as component ``index`` of a tuple attribute if given.
    ``derive(value, staged)`` maps the value to the attribute's value once
    every other key has landed; ``get(owner)`` gives the echoed value when it
    is not the attribute's. A derived key without ``get`` is an alternative
    spelling and is not echoed. ``presets`` maps each mission preset to the
    key's text, and the key that ``picks_preset`` lands nowhere.
    """

    kind: _Kind
    attr: str | None = None
    owner: str | None = None
    index: int | None = None
    derive: Callable | None = None
    get: Callable | None = None
    presets: dict[str, str] | None = None
    picks_preset: bool = False


def _at_altitude(xy, staged) -> np.ndarray:
    return np.array([*xy, staged.mission.altitude])


def _whole_slots(duration, staged) -> int:
    """The slot count of ``duration``, which must be a whole number of slots to 1e-9 relative."""
    delta = staged.mission.delta
    if not delta > 0.0:
        raise ScenarioParseError("mission.slot", f"must be positive, got {delta!r} s")
    slots = duration / delta
    if abs(slots - round(slots)) > 1e-9 * abs(slots):
        raise ScenarioParseError("mission.duration", f"{duration!r} s is not a whole number of {delta!r} s slots")
    return round(slots)


_FIELDS = {
    ("link", "transmit_power"): _Field(_quantity("power")),
    ("link", "noise_std"): _Field(_quantity("current")),
    ("link", "pt_over_noise"): _Field(
        _quantity("decibel"), "noise_std", derive=lambda db, st: st.link.transmit_power / 10.0 ** (db / 10.0)
    ),
    ("link", "responsivity"): _Field(_quantity("responsivity")),
    ("link", "aperture"): _Field(_quantity("length")),
    ("link", "divergence_std"): _Field(_quantity("angle"), "sigma_div"),
    ("link", "log_amplitude_std"): _Field(_quantity("dimensionless"), "sigma_i"),
    ("link", "visibility"): _Field(_quantity("length")),
    ("link", "wavelength"): _Field(_quantity("length")),
    ("aircraft", "c1"): _Field(_quantity("drag_lump")),
    ("aircraft", "c2"): _Field(_quantity("dimensionless")),
    ("aircraft", "gravity"): _Field(_quantity("acceleration"), "g"),
    ("aircraft", "mass"): _Field(_quantity("mass")),
    ("aircraft", "v_min"): _Field(_quantity("speed")),
    ("aircraft", "v_max"): _Field(_quantity("speed")),
    ("aircraft", "a_max"): _Field(_quantity("acceleration")),
    ("jitter", "sigma_roll"): _Field(_quantity("angle"), "sigma", index=0),
    ("jitter", "sigma_pitch"): _Field(_quantity("angle"), "sigma", index=1),
    ("jitter", "sigma_yaw"): _Field(_quantity("angle"), "sigma", index=2),
    ("jitter", "rho_roll_pitch"): _Field(_quantity("dimensionless"), "rho", index=0),
    ("jitter", "rho_pitch_yaw"): _Field(_quantity("dimensionless"), "rho", index=1),
    ("jitter", "rho_yaw_roll"): _Field(_quantity("dimensionless"), "rho", index=2),
    ("mission", "kind"): _Field(
        _choice(*_MISSIONS),
        picks_preset=True,
        get=lambda sc: "hover" if np.allclose(sc.start, sc.end) else "moving",
    ),
    ("mission", "start"): _Field(
        _POINT,
        derive=_at_altitude,
        get=lambda sc: sc.start[:2],
        presets={"moving": "54, 200 m", "hover": "0, 0 m"},
    ),
    ("mission", "end"): _Field(
        _POINT,
        derive=_at_altitude,
        get=lambda sc: sc.end[:2],
        presets={"moving": "450, 200 m", "hover": "0, 0 m"},
    ),
    ("mission", "altitude"): _Field(_quantity("length"), presets=dict.fromkeys(_MISSIONS, "600 m")),
    ("mission", "duration"): _Field(
        _quantity("time"),
        "n_slots",
        derive=_whole_slots,
        get=lambda sc: sc.duration,
        presets={"moving": "20 s", "hover": "80 s"},
    ),
    ("mission", "slot"): _Field(_quantity("time"), "delta", presets=dict.fromkeys(_MISSIONS, "0.2 s")),
    ("mission", "launch_cost"): _Field(_quantity("energy"), presets={"moving": "1e5 J", "hover": "4e5 J"}),
    ("mission", "init"): _Field(
        _choice("linear", "circular"),
        "initialization",
        derive=lambda name, st: CircularInit(**vars(st.circle)) if name == "circular" else name,
        get=lambda sc: "circular" if isinstance(sc.initialization, CircularInit) else "linear",
        presets={"moving": "linear", "hover": "circular"},
    ),
    ("mission", "circle_center"): _Field(_POINT, "center_xy", owner="circle"),
    ("optimizer", "max_outer"): _Field(_integer(1)),
    ("optimizer", "solver_tol"): _Field(_quantity("dimensionless")),
    ("optimizer", "seed"): _Field(_integer(0), owner="mission"),
    ("optimizer", "samples"): _Field(_integer(1), "mc_samples", owner="mission"),
    ("pointing", "position"): _Field(_POSITION),
    ("pointing", "roll"): _Field(_quantity("angle")),
    ("pointing", "pitch"): _Field(_quantity("angle")),
    ("pointing", "yaw"): _Field(_quantity("angle")),
}
_SECTIONS = {section for section, _ in _FIELDS}

# owner -> the dataclass its keys land in
_OWNERS = {
    "link": LinkParams,
    "aircraft": AircraftParams,
    "jitter": JitterCovariance,
    "circle": CircularInit,
    "mission": Scenario,
    "optimizer": OptimizerConfig,
    "pointing": PointingGeometry,
}


def _defaults(cls) -> dict:
    """Every field default of a dataclass."""
    out = {}
    for f in fields(cls):
        if f.default is not MISSING:
            out[f.name] = f.default
        elif f.default_factory is not MISSING:
            out[f.name] = f.default_factory()
    return out


def _read(path_or_text) -> dict[tuple[str, str], str]:
    """Raw text of every key in a scenario file (path or text)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    text = str(path_or_text)
    try:
        if text == "" or "\n" in text:
            parser.read_string(text)
        elif not parser.read(text):
            raise ScenarioParseError(text, "scenario file not found")
    except configparser.Error as exc:  # no section header, a key given twice...
        raise ScenarioParseError("scenario", exc.message) from exc
    if parser.defaults():
        raise ScenarioParseError(parser.default_section, "unknown section")
    given = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioParseError(section, "unknown section")
        for key, raw in parser[section].items():
            if (section, key) not in _FIELDS:
                raise ScenarioParseError(f"{section}.{key}", "unknown key")
            given[section, key] = raw
    return given


def _make(staged, owner: str):
    try:
        return _OWNERS[owner](**vars(getattr(staged, owner)))
    except (ValueError, InfeasibleScenarioError) as exc:
        raise ScenarioParseError(owner, str(exc)) from exc


def load_scenario(path_or_text, overrides: dict[tuple[str, str], str] | None = None) -> RunSettings:
    """Parse a scenario file (path or text); missing fields take the defaults.

    A string is scenario text when it is empty or holds a newline, else a path.

    ``overrides`` maps (section, key) to raw text that replaces the file's.
    """
    given = _read(path_or_text)
    given.update(overrides or {})
    staged = SimpleNamespace(**{owner: SimpleNamespace(**_defaults(cls)) for owner, cls in _OWNERS.items()})
    mission = _MISSIONS[0]
    landed, derived = {}, []
    for (section, key), f in _FIELDS.items():
        raw = given.get((section, key))
        if raw is None and f.presets:
            raw = f.presets[mission]
        if raw is None:
            continue
        value = f.kind.parse(f"{section}.{key}", raw)
        if f.picks_preset:
            mission = value
            continue
        target = (f.owner or section, f.attr or key, f.index)
        if target in landed:
            raise ScenarioParseError(f"{section}.{key}", f"give either {landed[target]} or {key}")
        landed[target] = key
        owner, attr = getattr(staged, target[0]), target[1]
        if f.derive:
            derived.append((owner, attr, f.derive, value))
        else:
            if f.index is not None:
                value = tuple(value if i == f.index else v for i, v in enumerate(getattr(owner, attr)))
            setattr(owner, attr, value)
    for owner, attr, derive, value in derived:
        setattr(owner, attr, derive(value, staged))
    for part in ("link", "aircraft", "jitter"):
        setattr(staged.mission, part, _make(staged, part))
    return RunSettings(_make(staged, "mission"), _make(staged, "optimizer"), _make(staged, "pointing"))


def dump_scenario(settings: RunSettings) -> str:
    """Serialize settings in the same format load_scenario reads (SI units)."""
    sc = settings.scenario
    owners = {
        "link": sc.link,
        "aircraft": sc.aircraft,
        "jitter": sc.jitter,
        "circle": sc.initialization if isinstance(sc.initialization, CircularInit) else None,
        "mission": sc,
        "optimizer": settings.optimizer,
        "pointing": settings.pointing,
    }
    blocks = {}
    for (section, key), f in _FIELDS.items():
        owner = owners[f.owner or section]
        if owner is None or (f.derive and not f.get):
            continue
        if f.get:
            value = f.get(owner)
        else:
            value = getattr(owner, f.attr or key)
            value = value if f.index is None else value[f.index]
        blocks.setdefault(section, [f"[{section}]"]).append(f"{key} = {f.kind.show(value)}")
    return "\n\n".join("\n".join(block) for block in blocks.values()) + "\n"
