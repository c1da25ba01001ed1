"""Component-count model and savings ratios."""

import pytest

from nbqc.cost import (
    AMBIGUITY_NOTE,
    CATEGORIES,
    VARIANTS,
    CostParams,
    cost,
    render_report,
    savings,
)
from nbqc.shuffle import BenesNetwork
from oracles import per_category_ratios

# 64-ary (1260, 630) rate-0.5 example: q=64, gamma=10, rho=20
P64 = CostParams(b_q=6, n_m=16, d_c=4, q=64, gamma=10, rho=20)
# 32-ary (992, 496) rate-0.5 example: q=32, gamma=16, rho=32
P32 = CostParams(b_q=6, n_m=16, d_c=4, q=32, gamma=16, rho=32)


def test_gsn_wire_counts_64ary():
    base = 6 * 16 * 63 * 4
    assert cost("P1", P64).gsn_wires == base
    assert cost("P2", P64).gsn_wires == base
    assert cost("Ref4", P64).gsn_wires == 3 * base
    assert cost("Ref5", P64).gsn_wires == 3 * base


def test_demux_and_lut_counts_64ary():
    p = P64.lut_word
    assert p == 6
    assert cost("P1", P64).gsn_demux == 0
    assert cost("P2", P64).gsn_demux == 63 * 20
    assert cost("Ref4", P64).gsn_demux == 3 * 63 * 20
    assert cost("P1", P64).gsn_lut_bits == 0
    assert cost("P2", P64).gsn_lut_bits == p * 63 * 20
    assert cost("Ref4", P64).gsn_lut_bits == p * 63 * (20 + 10 * 9 // 2)
    assert cost("Ref5", P64).gsn_lut_bits == p * 63 * (3 * 20 + 10 - 2)


def test_lsn_counts_64ary():
    assert cost("P1", P64).lsn_wires == 6 * 63 * 10
    assert cost("P4", P64).lsn_wires == 2 * 6 * 63 * 10
    assert cost("P4", P64).lsn_demux == 6 * 63 * 10
    assert cost("P2", P64).lsn_crossbars == 0
    # rho=20 padded to width 32: 32*5 - 16 = 144 crossbars
    assert cost("P3", P64).lsn_crossbars == 144
    assert cost("P3", P64).rho_padded
    assert cost("P3", P64).lsn_lut_bits == 10 * 32 * 5 // 2
    assert cost("Ref4", P64).lsn_wires is None
    assert cost("Ref5", P64).lsn_crossbars is None


def test_crossbar_counts_power_of_two():
    # (crossbars, LSN LUT bits, padded) of P3 at gamma = 2: the LUT bits
    # are gamma * width * log2(width) / 2 for rho padded to the width
    def counts(rho):
        bd = cost("P3", CostParams(b_q=6, n_m=16, d_c=4, q=64, gamma=2, rho=rho))
        return bd.lsn_crossbars, bd.lsn_lut_bits, bd.rho_padded

    assert counts(32) == (144, 160, False)
    assert counts(20) == (144, 160, True)
    assert counts(4) == (6, 8, False)
    assert counts(3) == (6, 8, True)
    assert counts(2) == (1, 2, False)
    assert counts(1) == (0, 0, False)  # one column: no network


def test_p3_crossbars_match_network_model():
    assert cost("P3", P32).lsn_crossbars == BenesNetwork(32).num_switches
    assert not cost("P3", P32).rho_padded


def test_support_flags():
    assert not cost("P3", P64).supports_class1
    assert cost("P1", P64).supports_class1
    assert not cost("P1", P64).flexible
    assert cost("P2", P64).flexible
    for ref in ("Ref4", "Ref5"):
        bd = cost(ref, P64)
        assert bd.supports_class1 and not bd.supports_class2 and not bd.flexible


def test_default_savings_is_wire_ratio():
    s = savings(cost("P1", P64), cost("Ref5", P64))
    assert s == pytest.approx(2 / 3)
    # Ref designs have no local-network categories, so only GSN wires count
    ratios = per_category_ratios(cost("P1", P64), cost("Ref5", P64))
    assert ratios["gsn_wires"] == pytest.approx(1 / 3)
    assert ratios["lsn_wires"] is None


def test_weighted_savings():
    a, b = cost("P2", P64), cost("Ref4", P64)
    s = savings(a, b, {"gsn_lut_bits": 1.0})
    assert s == pytest.approx(1 - (6 * 63 * 20) / (6 * 63 * 65))
    with pytest.raises(ValueError):
        savings(a, b, {"bogus": 1.0})
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="weight of gsn_wires must be finite and non-negative"):
            savings(a, b, {"lsn_wires": 1.0, "gsn_wires": bad})
    assert savings(a, b, {"gsn_wires": 0.0, "gsn_lut_bits": 1.0}) == s
    with pytest.raises(ValueError, match="no comparable weighted categories"):
        savings(a, b, {"lsn_wires": 1.0})  # not applicable to Ref designs


def test_class2_network_reduction_fraction():
    # one configurable network instead of k = 16 fixed ones for q = 32
    assert 15 / 16 == 0.9375
    assert "15/16" in AMBIGUITY_NOTE


def test_params_validation_and_lut_word():
    with pytest.raises(ValueError):
        CostParams(b_q=0, n_m=1, d_c=1, q=4, gamma=1, rho=1)
    assert CostParams(b_q=5, n_m=1, d_c=1, q=32, gamma=1, rho=1).lut_word == 5
    assert CostParams(b_q=5, n_m=1, d_c=1, q=32, gamma=1, rho=1, p=7).lut_word == 7
    for q in (2, 3, 6, 48, 512):  # no GF(2^m) with 2 <= m <= 8 has that many elements
        with pytest.raises(ValueError, match=f"q={q} is not 2"):
            CostParams(b_q=5, n_m=1, d_c=1, q=q, gamma=1, rho=1)
    for p in (0, -3):  # a LUT word size below 1 gave zero or negative LUT bits
        with pytest.raises(ValueError, match="LUT word size p"):
            CostParams(b_q=5, n_m=1, d_c=1, q=32, gamma=1, rho=1, p=p)
    with pytest.raises(ValueError):
        cost("P9", P64)


def test_render_report():
    text = render_report(P64)
    for cat in CATEGORIES:
        assert cat in text
    for v in VARIANTS:
        assert v in text
    assert "note:" in text
    assert "padded" in text  # rho=20 padding note
    csv = render_report(P32, as_csv=True)
    assert csv.splitlines()[0].startswith("category,P1,P2,")
    assert "is not a power of two" not in csv  # rho=32 needs no padding
