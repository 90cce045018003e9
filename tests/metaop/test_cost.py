"""Tests for the Table 2 / Table 3 multiplication-count model."""

from repro.metaop.cost import (
    WorkloadMultCount,
    decomp_polymult_mults_metaop,
    decomp_polymult_mults_origin,
    moddown_mults_metaop,
    moddown_mults_origin,
    modup_mults_metaop,
    modup_mults_origin,
    ntt_mults_metaop,
    ntt_mults_origin,
)


def test_table2_decomp_polymult_formulas():
    n = 4096
    for dnum in (1, 2, 3, 4):
        assert decomp_polymult_mults_origin(dnum, n) == 3 * dnum * n
        assert decomp_polymult_mults_metaop(dnum, n) == (dnum + 2) * n


def test_table2_savings_up_to_3x():
    """Paper: "the number of multiplication is reduced by up to 3x"."""
    n = 4096
    ratios = [
        decomp_polymult_mults_origin(d, n) / decomp_polymult_mults_metaop(d, n)
        for d in range(1, 30)
    ]
    assert all(r >= 1 for r in ratios)  # dnum=1 breaks even, rest improve
    assert max(ratios) < 3.0
    assert ratios[-1] > 2.7  # approaches 3x for large dnum
    assert ratios == sorted(ratios)  # monotone in dnum


def test_table3_modup_formulas():
    n = 4096
    for big_l, k in [(2, 2), (12, 12), (24, 6), (44, 12)]:
        assert modup_mults_origin(big_l, k, n) == (3 * k * big_l + 3 * big_l) * n
        assert (
            modup_mults_metaop(big_l, k, n)
            == (k * big_l + 3 * big_l + 2 * k) * n
        )


def test_table3_modup_savings_bounded_by_3x():
    n = 1024
    for big_l, k in [(4, 4), (12, 12), (44, 12)]:
        ratio = modup_mults_origin(big_l, k, n) / modup_mults_metaop(big_l, k, n)
        assert 1.0 < ratio < 3.0


def test_moddown_metaop_cheaper():
    n = 1024
    for big_l, k in [(4, 4), (24, 6), (44, 12)]:
        assert moddown_mults_metaop(big_l, k, n) < moddown_mults_origin(
            big_l, k, n
        )


def test_ntt_metaop_overhead_ten_percent():
    """Paper Section 4.2: NTT costs only ~10% more mults under Meta-OP."""
    for log_n in (12, 15):
        n = 1 << log_n
        overhead = ntt_mults_metaop(n) / ntt_mults_origin(n) - 1
        assert abs(overhead - 0.10) < 0.02


def test_workload_aggregation_keyswitch_shape():
    """A keyswitch-like mix nets out to an overall mult *reduction* (the
    paper's headline claim: NTT penalty < Bconv+DecompPolyMult savings)."""
    n = 1 << 15
    big_l, k, dnum = 24, 6, 4
    wl = WorkloadMultCount()
    # dnum modups, 2 moddowns, dnum*2 NTTs, DecompPolyMult over L+K channels
    wl.add_modup(big_l // dnum, k, n, count=dnum)
    wl.add_moddown(big_l, k, n, count=2)
    wl.add_ntt(n, count=dnum * (big_l + k) // 4)
    wl.add_decomp_polymult(dnum, n, count=2 * (big_l + k))
    assert wl.total_metaop < wl.total_origin
    assert 0 < wl.reduction_percent < 50


def test_workload_empty():
    wl = WorkloadMultCount()
    assert wl.reduction_percent == 0.0
    assert wl.total_origin == 0


def test_workload_elementwise_neutral():
    wl = WorkloadMultCount()
    wl.add_elementwise_mults(1000)
    assert wl.total_origin == wl.total_metaop == 3000
    assert wl.reduction_percent == 0.0


def test_lowering_counts_match_cost_model():
    """Meta-OP raw-mult counts from lowering equal the Table 2/3 formulas."""
    from repro.metaop.lowering import (
        lower_bconv,
        lower_decomp_polymult,
        total_raw_mults,
    )

    n, big_l, k = 1024, 12, 4
    issues = lower_bconv(big_l, k, n)
    assert total_raw_mults(issues) == modup_mults_metaop(big_l, k, n)

    dnum = 3
    issues = lower_decomp_polymult(dnum, n, channels=1, output_polys=1)
    assert total_raw_mults(issues) == decomp_polymult_mults_metaop(dnum, n)


def test_lowering_ntt_counts():
    from repro.metaop.lowering import lower_ntt, total_raw_mults

    n = 4096
    issues = lower_ntt(n)
    assert total_raw_mults(issues) == ntt_mults_metaop(n)
    issues2 = lower_ntt(n, channels=3)
    assert total_raw_mults(issues2) == 3 * ntt_mults_metaop(n)


def test_lowering_elementwise():
    from repro.metaop.lowering import lower_elementwise

    issues = lower_elementwise(1000)
    assert issues[0].count == 125
    assert issues[0].op.n == 1
