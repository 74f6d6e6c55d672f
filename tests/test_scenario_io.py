import io
import math

import numpy as np
import pytest

from fsotraj.errors import ScenarioParseError
from fsotraj.mission import CircularInit
from fsotraj.scenario import dump_scenario, load_scenario


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
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("[optimizer]\nmax_inner = 0\n")
    assert err.value.field == "optimizer"
    assert "max_inner" in str(err.value)


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
    original = load_scenario(
        "[mission]\nkind = hover\naltitude = 400 m\n"
        "[jitter]\nsigma_roll = 0.7 mrad\n"
        "[optimizer]\nmax_outer = 17\nseed = 99\n"
    )
    text = dump_scenario(original)
    again = load_scenario(io.StringIO(text))
    assert again.scenario.link == original.scenario.link
    assert again.scenario.aircraft == original.scenario.aircraft
    assert again.scenario.jitter == original.scenario.jitter
    assert again.scenario.initialization == original.scenario.initialization
    assert again.scenario.n_slots == original.scenario.n_slots
    assert again.scenario.seed == original.scenario.seed
    assert np.array_equal(again.scenario.start, original.scenario.start)
    assert np.array_equal(again.scenario.end, original.scenario.end)
    assert again.optimizer == original.optimizer
    assert np.allclose(again.pointing.position, original.pointing.position)
    # And the echo is stable under a second round trip.
    assert dump_scenario(again) == text


def test_mission_duration_inconsistency():
    settings = load_scenario("[mission]\nduration = 30 s\nslot = 0.5 s\n")
    assert settings.scenario.n_slots == 60
    assert settings.scenario.duration == pytest.approx(30.0)
