"""Acceptance gate: one test per headline capability.  conftest.py turns
each test's outcome into a single `[acceptance] <name>: PASS/FAIL` line in
the terminal summary.
"""

import numpy as np
import pytest

from nbqc.construct import (
    CodeSpec,
    build_base_class1,
    build_base_class2,
    build_code,
)
from nbqc.cost import AMBIGUITY_NOTE, CostParams, cost, savings
from nbqc.decode import (
    DecoderConfig,
    LAYER_I,
    build_layer_schedule,
    channel_reliability,
    check_node_min_max,
    decode,
    hard_channel,
    normalize,
    run_monte_carlo,
    snr_to_sigma,
)
from nbqc.gf import GF2m
from nbqc.shuffle import (
    BenesNetwork,
    build_index_matrix,
    route_schedule,
    schedule_driven_decode,
)
from nbqc.verify import verify_class1, verify_class2
from oracles import check_node_brute_force, iteration_moves, per_category_ratios

CLASS1_SUITE = [(2, 1, 3), (3, 7, 1), (4, 3, 5), (6, 7, 9)]
CLASS2_SUITE = [(2, 1), (3, 1), (4, 2), (5, 2)]

SPEC_CLASS1 = CodeSpec.class1(2, 1, 3, gamma=2, rho=3)  # 4-ary (9, 3)
SPEC_CLASS2 = CodeSpec.class2(2, 1, gamma=2, rho=4)  # 4-ary (12, 6)

SANITY_SPECS = [
    SPEC_CLASS1,
    CodeSpec.class1(4, 3, 5, gamma=3, rho=6),
    SPEC_CLASS2,
    CodeSpec.class2(3, 1, gamma=3, rho=6),
]


def report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_routing_index_table():
    expected = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    ok = np.array_equal(build_index_matrix(4), expected)
    report("routing-index-table", ok)


def test_class1_structure_suite():
    ok = True
    for m, c, n in CLASS1_SUITE:
        fld = GF2m(m)
        w, _ = build_base_class1(fld, c, n)
        ok = ok and verify_class1(fld, w, c, n).all_passed
    report("class1-structure-suite", ok)


def test_class2_structure_suite():
    ok = True
    for m, t in CLASS2_SUITE:
        fld = GF2m(m)
        w, _ = build_base_class2(fld, t)
        ok = ok and verify_class2(fld, w, 1 << (m - t), 1 << t).all_passed
    report("class2-structure-suite", ok)


def test_interlayer_vnu_map():
    moves = iteration_moves(SPEC_CLASS1)
    perm = moves[0]
    ok = perm[7] == 3
    ok = ok and perm.tolist() == [8, 6, 7, 2, 0, 1, 5, 3, 4]
    for move in moves[:-1]:
        ok = ok and np.array_equal(move, perm)
    report("interlayer-vnu-map", ok)


def test_check_node_equivalence():
    ok = True
    for q in (4, 8):
        for d in (2, 3, 4, 5):
            rng = np.random.default_rng(1000 * q + d)
            for _ in range(500):
                inputs = [normalize(rng.random(q) * 10) for _ in range(d)]
                x = np.stack(inputs, axis=1)[..., None]  # one row as (q, d, 1) lanes
                fast = check_node_min_max(x, np.empty(2 * q * q), np.empty_like(x))[..., 0].T
                slow = check_node_brute_force(inputs)
                ok = ok and all(
                    np.allclose(f, s, atol=1e-9) for f, s in zip(fast, slow)
                )
            if not ok:
                break
    report("check-node-equivalence", ok)


def test_benes_network_model():
    net = BenesNetwork(32)
    ok = net.num_stages == 9 and net.num_switches == 144
    # every scheduled group-level move of the 32-ary size-32 design routes
    spec32 = CodeSpec.class2(5, 2, gamma=16, rho=32)
    rpt = route_schedule(spec32)
    ok = ok and len(rpt.moves) == 16
    ok = ok and rpt.network.num_stages == 9 and rpt.network.num_switches == 144
    report("benes-network-model", ok)


def test_schedule_soundness():
    ok = True
    for spec in (SPEC_CLASS1, SPEC_CLASS2):
        h, _, _, fld = build_code(spec)
        schedule = build_layer_schedule(h, LAYER_I)
        sigma = snr_to_sigma(2.0, 0.5)
        config = DecoderConfig(max_iter=5, trace=True)
        for t in range(100):
            rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(0, t)))
            channel = channel_reliability(np.zeros(h.cols, dtype=int), sigma, fld, rng)
            direct = decode(h, schedule, channel, fld, config)
            shuffled = schedule_driven_decode(spec, h, channel, fld, config)
            ok = (
                ok
                and np.array_equal(direct.symbols, shuffled.symbols)
                and direct.iterations == shuffled.iterations
                and len(direct.trace) == len(shuffled.trace)
                and all(np.array_equal(a, b) for a, b in zip(direct.trace, shuffled.trace))
            )
        if not ok:
            break
    report("schedule-soundness", ok)


def test_complexity_model():
    p64 = CostParams(b_q=6, n_m=16, d_c=4, q=64, gamma=10, rho=20)
    p32 = CostParams(b_q=6, n_m=16, d_c=4, q=32, gamma=16, rho=32)
    ok = True

    # reference designs triplicate the global network wires
    ratios = per_category_ratios(cost("P1", p64), cost("Ref5", p64))
    ok = ok and ratios["gsn_wires"] == pytest.approx(1 / 3)
    ok = ok and savings(cost("P1", p64), cost("Ref5", p64)) == pytest.approx(2 / 3)

    # one configurable network replaces k = 16 fixed ones: (k-1)/k saved
    ok = ok and (16 - 1) / 16 == 0.9375 and "15/16" in AMBIGUITY_NOTE

    # crossbar row equals the constructed network's switch count
    ok = ok and cost("P3", p32).lsn_crossbars == BenesNetwork(32).num_switches

    # exact evaluation of the 64-ary q=64, gamma=10, rho=20 design point
    base = 6 * 16 * 63 * 4
    bd = {v: cost(v, p64) for v in ("P1", "P2", "P3", "P4", "Ref4", "Ref5")}
    ok = ok and bd["P1"].gsn_wires == base
    ok = ok and bd["Ref4"].gsn_wires == 3 * base
    ok = ok and bd["P2"].gsn_demux == 63 * 20
    ok = ok and bd["Ref5"].gsn_demux == 3 * 63 * 20
    ok = ok and bd["P2"].gsn_lut_bits == 6 * 63 * 20
    ok = ok and bd["Ref4"].gsn_lut_bits == 6 * 63 * (20 + 45)
    ok = ok and bd["Ref5"].gsn_lut_bits == 6 * 63 * (60 + 10 - 2)
    ok = ok and bd["P1"].lsn_wires == 6 * 63 * 10
    ok = ok and bd["P4"].lsn_wires == 2 * 6 * 63 * 10
    ok = ok and bd["P3"].lsn_crossbars == 144 and bd["P3"].rho_padded
    ok = ok and not bd["P3"].supports_class1 and not bd["P1"].flexible
    report("complexity-model", ok)


def test_decoder_sanity():
    ok = True
    for spec in SANITY_SPECS:
        h, _, _, fld = build_code(spec)
        schedule = build_layer_schedule(h, LAYER_I)
        channel = hard_channel(np.zeros(h.cols, dtype=int), fld)
        result = decode(h, schedule, channel, fld, DecoderConfig())
        ok = ok and result.syndrome_zero and result.iterations == 1
        ok = ok and not result.symbols.any()

    h, _, _, fld = build_code(SPEC_CLASS2)
    schedule = build_layer_schedule(h, LAYER_I)
    rows = run_monte_carlo(
        h, schedule, fld, [1.0, 4.0], 2000, DecoderConfig(max_iter=10, rng_seed=3)
    )
    ok = ok and rows[1].fer < rows[0].fer
    report("decoder-sanity", ok)


def test_fault_injection():
    import random

    ok = True
    for m, c, n in [(2, 1, 3), (4, 3, 5)]:
        fld = GF2m(m)
        w, _ = build_base_class1(fld, c, n)
        rng = random.Random(m)
        for _ in range(50):
            ent = w.copy()
            ent[rng.randrange(len(w)), rng.randrange(len(w))] ^= rng.randrange(1, fld.q)
            ok = ok and not verify_class1(fld, ent, c, n).all_passed
    for m, t in [(2, 1), (4, 2)]:
        fld = GF2m(m)
        w, _ = build_base_class2(fld, t)
        rng = random.Random(10 * m + t)
        for _ in range(50):
            ent = w.copy()
            ent[rng.randrange(len(w)), rng.randrange(len(w))] ^= rng.randrange(1, fld.q)
            ok = ok and not verify_class2(fld, ent, 1 << (m - t), 1 << t).all_passed
    report("fault-injection", ok)
