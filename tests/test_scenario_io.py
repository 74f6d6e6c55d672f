import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fsotraj.errors import ScenarioParseError
from fsotraj.mission import CircularInit, OptimizerConfig
from fsotraj.scenario import dump_scenario, load_scenario

ROOT = Path(__file__).resolve().parents[1]
ROUNDTRIP_TEXT = (
    "[mission]\nkind = hover\naltitude = 400 m\n"
    "[jitter]\nsigma_roll = 0.7 mrad\n"
    "[optimizer]\nmax_outer = 17\nseed = 99\n"
)
# Loaded settings and echo of each input, recorded before the loader and the
# echo were rebuilt on one field table; every float is its repr, so equality
# is bit for bit and an int never passes for a float.
GOLDEN = json.loads((Path(__file__).with_name("scenario_golden.json")).read_text())
GOLDEN_INPUTS = {
    "defaults": "",
    "roundtrip": ROUNDTRIP_TEXT,
    **{name: str(ROOT / "scenarios" / f"{name}.ini") for name in ("moving", "hover", "hover_pitch_jitter")},
}


def flat(obj):
    """Every field of nested settings dataclasses, each scalar as its repr."""
    if dataclasses.is_dataclass(obj):
        return {f.name: flat(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [repr(x) for x in obj.tolist()]
    if isinstance(obj, tuple):
        return [flat(x) for x in obj]
    return repr(obj)


def test_empty_file_gives_defaults():
    settings = load_scenario("")
    sc = settings.scenario
    assert sc.altitude == 600.0
    assert sc.link.transmit_power == pytest.approx(10e-3)
    assert sc.link.noise_std == pytest.approx(1e-5)
    assert sc.link.responsivity == 0.5
    assert sc.link.aperture == pytest.approx(0.20)
    assert sc.link.sigma_i == 0.3
    assert sc.link.visibility == pytest.approx(3e3)
    assert sc.link.wavelength == pytest.approx(1550e-9)
    assert sc.link.sigma_div == pytest.approx(1.5e-3)
    assert sc.delta == pytest.approx(0.2)
    assert sc.aircraft.v_min == 3.0
    assert sc.aircraft.v_max == 100.0
    assert sc.aircraft.a_max == 5.0
    assert sc.aircraft.g == 9.8
    assert sc.n_slots == 100  # 20 s moving mission at 0.2 s slots
    assert sc.launch_cost == pytest.approx(1e5)
    assert np.allclose(sc.start, [54.0, 200.0, 600.0])
    assert np.allclose(sc.end, [450.0, 200.0, 600.0])


def test_jitter_mrad_conversion():
    settings = load_scenario(
        "[jitter]\nsigma_roll = 1 mrad\nsigma_pitch = 0.1 mrad\nsigma_yaw = 0.1 mrad\n"
    )
    mat = settings.scenario.jitter.matrix
    assert mat[0, 0] == pytest.approx((1e-3) ** 2)
    assert mat[1, 1] == pytest.approx((1e-4) ** 2)
    assert mat[2, 2] == pytest.approx((1e-4) ** 2)


def test_negative_divergence_rejected_with_path():
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("[link]\ndivergence_std = -1 mrad\n")
    assert "link" in str(err.value)


def test_zero_inner_budget_rejected_with_path():
    # One Dinkelbach step per restriction: the trade-off search's solve budget
    # and tolerance are no longer keys.
    for key in ("max_inner = 0", "max_inner = 40", "tol_dinkelbach_rel = 1e-4"):
        with pytest.raises(ScenarioParseError, match="unknown key") as err:
            load_scenario(f"[optimizer]\n{key}\n")
        assert err.value.field == f"optimizer.{key.split()[0]}"


def test_unknown_key_rejected():
    for text in ("[link]\nfrobnication = 3 m\n", "[optimizer]\nprinted_drag_cone = true\n"):
        with pytest.raises(ScenarioParseError, match="unknown key"):
            load_scenario(text)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioParseError, match="unknown section"):
        load_scenario("[warp]\nfactor = 9\n")


def test_wrong_unit_dimension_rejected():
    with pytest.raises(ScenarioParseError, match="expected a length"):
        load_scenario("[link]\naperture = 20 s\n")
    with pytest.raises(ScenarioParseError, match="unknown unit"):
        load_scenario("[link]\naperture = 20 flongs\n")


def test_snr_ratio_sets_noise():
    settings = load_scenario("[link]\ntransmit_power = 10 mW\npt_over_noise = 30 dB\n")
    assert settings.scenario.link.noise_std == pytest.approx(1e-5)


def test_noise_conflict_rejected():
    with pytest.raises(ScenarioParseError, match="either"):
        load_scenario("[link]\nnoise_std = 1e-5 A\npt_over_noise = 30 dB\n")


def test_hover_defaults():
    settings = load_scenario("[mission]\nkind = hover\n")
    sc = settings.scenario
    assert sc.n_slots == 400
    assert sc.launch_cost == pytest.approx(4e5)
    assert isinstance(sc.initialization, CircularInit)
    assert sc.initialization.center_xy == (0.0, -60.0)
    assert np.allclose(sc.start, [0.0, 0.0, 600.0])


def test_angles_accept_degrees():
    settings = load_scenario("[pointing]\npitch = -10 deg\nyaw = 90 deg\n")
    assert settings.pointing.pitch == pytest.approx(math.radians(-10.0))
    assert settings.pointing.yaw == pytest.approx(math.pi / 2)


def test_roundtrip_identity():
    original = load_scenario(ROUNDTRIP_TEXT)
    text = dump_scenario(original)
    again = load_scenario(text)
    # Every field, mc_samples and the pointing posture included, bit for bit.
    assert flat(again) == flat(original)
    # And the echo is stable under a second round trip.
    assert dump_scenario(again) == text


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_golden_settings_and_echo(name):
    settings = load_scenario(GOLDEN_INPUTS[name])
    assert flat(settings) == GOLDEN[name]["settings"]
    assert dump_scenario(settings) == GOLDEN[name]["echo"]


def test_mission_duration_inconsistency():
    settings = load_scenario("[mission]\nduration = 30 s\nslot = 0.5 s\n")
    assert settings.scenario.n_slots == 60
    assert settings.scenario.duration == pytest.approx(30.0)


@pytest.mark.parametrize("duration, slot", [("1 s", "0.3 s"), ("20.1 s", "0.2 s")])
def test_duration_of_partial_slots_rejected(duration, slot):
    with pytest.raises(ScenarioParseError, match="not a whole number") as err:
        load_scenario(f"[mission]\nduration = {duration}\nslot = {slot}\n")
    assert err.value.field == "mission.duration"


@pytest.mark.parametrize("slot", ["0 s", "-0.2 s"])
def test_nonpositive_slot_rejected_with_path(slot):
    with pytest.raises(ScenarioParseError, match="must be positive") as err:
        load_scenario(f"[mission]\nslot = {slot}\n")
    assert err.value.field == "mission.slot"


@pytest.mark.parametrize("tol", ["0", "-1e-8"])
def test_nonpositive_solver_tol_rejected(tol):
    # A tolerance no solve can meet is refused at load, not after the first
    # solve has run out of steps.
    with pytest.raises(ScenarioParseError, match="solver_tol must be positive") as err:
        load_scenario(f"[optimizer]\nsolver_tol = {tol}\n")
    assert err.value.field == "optimizer"


@pytest.mark.parametrize("max_outer", [0, -1, 2.5, True, "3"])
def test_optimizer_config_rejects_max_outer_below_one(max_outer):
    # The Python API holds max_outer to the parser's rule: an integer of at
    # least 1. With 0 the outer loop would never run and return no plan.
    with pytest.raises(ValueError, match="max_outer must be an integer of at least 1"):
        OptimizerConfig(max_outer=max_outer)


# Every unit token the README, the bundled scenarios, the tests and the echo
# use: a key of its dimension and the SI factor the token has always had.
KNOWN_TOKENS = {
    "m": ("link", "aperture", 1.0),
    "cm": ("link", "aperture", 1e-2),
    "mm": ("link", "aperture", 1e-3),
    "km": ("link", "aperture", 1e3),
    "nm": ("link", "aperture", 1e-9),
    "s": ("mission", "slot", 1.0),
    "W": ("link", "transmit_power", 1.0),
    "mW": ("link", "transmit_power", 1e-3),
    "J": ("mission", "launch_cost", 1.0),
    "rad": ("pointing", "roll", 1.0),
    "mrad": ("pointing", "roll", 1e-3),
    "deg": ("pointing", "roll", math.pi / 180.0),
    "m/s": ("aircraft", "v_min", 1.0),
    "m/s^2": ("aircraft", "a_max", 1.0),
    "A": ("link", "noise_std", 1.0),
    "A/W": ("link", "responsivity", 1.0),
    "kg": ("aircraft", "mass", 1.0),
    "kg/m": ("aircraft", "c1", 1.0),
}


@pytest.mark.parametrize("token", sorted(KNOWN_TOKENS))
def test_known_unit_tokens_keep_their_factor(token):
    # 0.5 s slots divide the preset 20 s duration into whole slots.
    section, key, factor = KNOWN_TOKENS[token]
    echo = dump_scenario(load_scenario(f"[{section}]\n{key} = 0.5 {token}\n"))
    assert f"\n{key} = {0.5 * factor!r}" in echo


def test_decibel_token():
    settings = load_scenario("[link]\npt_over_noise = 0.75 dB\n")
    assert settings.scenario.link.noise_std == 0.01 / 10.0 ** (0.75 / 10.0)


def test_position_takes_its_length_unit():
    settings = load_scenario("[pointing]\nposition = 50, 550, 600 mm\n")
    assert settings.pointing.position.tolist() == [50 * 1e-3, 550 * 1e-3, 600 * 1e-3]


def test_position_in_kilometres():
    settings = load_scenario("[pointing]\nposition = 0.05, 0.55, 0.6 km\n")
    assert settings.pointing.position.tolist() == [0.05 * 1e3, 0.55 * 1e3, 0.6 * 1e3]


@pytest.mark.parametrize(
    "text, path",
    [
        ("[link]\ntransmit_power = 1 MW\n", "link.transmit_power"),  # read as 1 mW
        ("[mission]\nlaunch_cost = 400000 mJ\n", "mission.launch_cost"),  # read as 4e11 J
        ("[link]\naperture = 20 CM\n", "link.aperture"),
    ],
)
def test_wrong_prefix_case_rejected(text, path):
    with pytest.raises(ScenarioParseError, match="case-sensitive") as err:
        load_scenario(text)
    assert err.value.field == path
