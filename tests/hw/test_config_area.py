"""Tests for the architecture config and the Table 5 area model."""

import pytest

from repro.hw.area import AreaModel, PowerModel
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig

# Published anchors from Table 5 (mm^2).
TABLE5 = {
    "core": 0.043,
    "core_cluster": 16 * 0.043,
    "local_sram": 0.427,
    "computing_unit": 1.118,
    "all_units": 143.104,
    "transpose_rf": 6.380,
    "shared_sram": 1.801,
    "memory_interface": 29.801,
    "total": 181.086,
}


def test_default_config_design_point():
    c = ALCHEMIST_DEFAULT
    assert c.total_cores == 2048
    assert c.total_mult_lanes == 16384
    assert c.total_onchip_bytes == (64 + 2) * 1024 * 1024
    assert c.peak_mults_per_second == pytest.approx(16384e9)


def test_config_derived_bandwidths():
    c = ALCHEMIST_DEFAULT
    assert c.hbm_bytes_per_cycle == pytest.approx(1000.0)     # 1 TB/s @ 1GHz
    assert c.onchip_bytes_per_cycle == pytest.approx(66000.0)
    assert c.word_bytes == pytest.approx(4.5)


def test_config_validation():
    with pytest.raises(ValueError):
        AlchemistConfig(num_units=0)
    with pytest.raises(ValueError):
        AlchemistConfig(frequency_ghz=0)
    with pytest.raises(ValueError):
        AlchemistConfig(word_bits=128)


@pytest.mark.parametrize("field", ["hbm_bandwidth_gbps",
                                   "onchip_bandwidth_tbps", "frequency_ghz"])
@pytest.mark.parametrize("value", [0.0, -5.0, float("nan"), float("inf")])
def test_config_rejects_non_positive_bandwidth(field, value):
    with pytest.raises(ValueError, match=field):
        AlchemistConfig(**{field: value})


@pytest.mark.parametrize("field", ["num_units", "cores_per_unit",
                                   "lanes_per_core"])
def test_config_rejects_counts_beyond_float_range(field):
    """The area, power and cost models scale floats by these counts, so
    one with no float value is refused here, not by an ``OverflowError``
    in the first product."""
    with pytest.raises(ValueError, match=field):
        AlchemistConfig(**{field: 10 ** 400})


def test_area_row_labels_follow_the_config():
    config = ALCHEMIST_DEFAULT.with_overrides(
        num_units=64, cores_per_unit=8, hbm_stacks=4)
    labels = list(AreaModel(config).breakdown().as_table_rows())
    assert labels[0] == "1x Core Cluster (8x CORE)"
    assert labels[3] == "64x Computing Unit"
    assert labels[6] == "Memory interface (4xHBM2 PHYs)"


def test_config_with_overrides():
    c = ALCHEMIST_DEFAULT.with_overrides(num_units=64)
    assert c.num_units == 64
    assert c.total_cores == 1024
    assert ALCHEMIST_DEFAULT.num_units == 128  # original untouched


@pytest.mark.parametrize("component,expected", sorted(TABLE5.items()))
def test_area_matches_table5(component, expected):
    """Every row of Table 5 within 1%."""
    breakdown = AreaModel(ALCHEMIST_DEFAULT).breakdown()
    got = getattr(breakdown, component)
    assert got == pytest.approx(expected, rel=0.01), component


def test_area_table_rows_render():
    rows = AreaModel(ALCHEMIST_DEFAULT).breakdown().as_table_rows()
    assert "Total" in rows
    assert rows["Total"] == pytest.approx(181.086, rel=0.01)
    assert len(rows) == 8


def test_area_scales_with_units():
    half = AreaModel(ALCHEMIST_DEFAULT.with_overrides(num_units=64))
    full = AreaModel(ALCHEMIST_DEFAULT)
    # halving units roughly halves the unit array area
    assert half.breakdown().all_units == pytest.approx(
        full.breakdown().all_units / 2
    )
    # but per-unit area is unchanged
    assert half.computing_unit_area() == full.computing_unit_area()


def test_area_scales_with_sram():
    big = AreaModel(ALCHEMIST_DEFAULT.with_overrides(local_sram_kb=1024))
    assert big.local_sram_area() > 2 * 0.427 * 0.95


def test_power_near_paper():
    """Paper: 77.9 W average (reported, calibrated within 5%)."""
    watts = PowerModel(ALCHEMIST_DEFAULT).average_power_watts()
    assert watts == pytest.approx(77.9, rel=0.05)


def test_logic_plus_sram_partition_total():
    m = AreaModel(ALCHEMIST_DEFAULT)
    b = m.breakdown()
    recon = m.logic_area() + m.sram_area() + b.memory_interface
    assert recon == pytest.approx(b.total, rel=1e-9)
