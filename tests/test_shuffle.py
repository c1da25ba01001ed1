"""Routing schedules, the index table, the Benes model and the
schedule-driven decoder."""

import hashlib
import itertools
import types

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from nbqc import shuffle
from nbqc.construct import CodeSpec, build_code
from nbqc.decode import DecoderConfig, LAYER_I, build_layer_schedule, channel_reliability, decode, snr_to_sigma
from nbqc.gf import GF2m
from nbqc.shuffle import (
    BenesNetwork,
    RoutingReport,
    apply,
    build_index_matrix,
    distinct_moves,
    group_moves,
    iteration_moves,
    render_schedule,
    route_schedule,
    schedule_driven_decode,
)
from oracles import schedule_text

SPEC_CLASS1 = CodeSpec.class1(2, 1, 3, gamma=2, rho=3)  # 4-ary (9, 3)
SPEC_CLASS2 = CodeSpec.class2(2, 1, gamma=2, rho=4)  # 4-ary (12, 6)


def cycle_walk(perm):
    """Reference: the cycles met walking up from position 0."""
    seen, out = set(), []
    for start in range(len(perm)):
        cyc, a = [], start
        while a not in seen:
            seen.add(a)
            cyc.append(a)
            a = perm[a]
        if cyc:
            out.append(tuple(cyc))
    return out


def cycles_text(perm):
    """Reference: the cycles field of a report line, from `cycle_walk`."""
    want = " ".join("(" + " ".join(map(str, c)) + ")" for c in cycle_walk(perm) if len(c) > 1)
    return want or "(identity)"


def positions(row, qm1):
    """Reference: the positions of a move (G then s), one group at a time."""
    groups, shifts = np.split(np.asarray(row), 2)
    return [groups[g] * qm1 + (j - shifts[g]) % qm1 for g in range(len(groups)) for j in range(qm1)]


def fixed_wires(perms):
    """A fixed-wires report over position moves: q-1 = 1, G = perm, s = 0."""
    perms = np.asarray(perms)
    return RoutingReport(np.hstack([perms, np.zeros_like(perms)]), 1, None)


@st.composite
def repeated_moves(draw):
    """Moves drawn from a permutation and copies of it with two entries
    swapped: a report repeats moves, and its distinct moves nearly agree."""
    n = draw(st.integers(min_value=1, max_value=40))
    base = draw(st.permutations(range(n)))
    pool = [base]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)):
        pool.append(list(base))
        pool[-1][i], pool[-1][j] = base[j], base[i]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@given(repeated_moves())
@settings(max_examples=80, deadline=None)
def test_cycles_and_render_match_cycle_walk(perms):
    moves = np.array(perms)
    lines = fixed_wires(moves).render().splitlines()
    assert len(lines) == len(moves) + 2  # one per move, then the total and the fixed-wires note
    for t, (move, perm, line) in enumerate(zip(moves, perms, lines)):
        assert line.endswith(" cycles=" + cycles_text(perm))
        head, body = line.split(":", 1)
        assert head == f"layer {t}->{(t + 1) % len(moves)}"
        assert body == fixed_wires(move[None]).render().splitlines()[0].split(":", 1)[1]


@st.composite
def rotated_moves(draw):
    """Moves (G then s) at the (rho, q-1) of small and headline codes: G
    random or the identity, s random or 0, drawn from a pool of two so
    that moves repeat."""
    rho, qm1 = draw(st.sampled_from([(0, 1), (20, 63), (32, 31), (256, 255)]))
    rho = rho or draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [
        np.concatenate([
            rng.permutation(rho) if draw(st.booleans()) else np.arange(rho),
            rng.integers(0, qm1, rho) if draw(st.booleans()) else np.zeros(rho, int),
        ])
        for _ in range(2)
    ]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)), qm1


@given(rotated_moves())
@settings(max_examples=40, deadline=None)
def test_group_move_cycles_match_cycle_walk(case):
    rows, qm1 = case
    lines = RoutingReport(np.array(rows), qm1, None).render().splitlines()
    for row, line in zip(rows, lines):
        assert line.endswith(" cycles=" + cycles_text(positions(row, qm1)))


def one_cycle(rho, qm1, turn):
    """G one cycle through every group, its rotations summing to `turn`."""
    shifts = np.arange(rho)
    shifts[-1] += turn - shifts.sum()
    return np.concatenate([np.roll(np.arange(rho), 1), shifts % qm1])


@pytest.mark.parametrize("rho,qm1", [(1, 1), (40, 1), (20, 63), (32, 31), (256, 255)])
def test_group_move_cycles_edge_cases(rho, qm1):
    # identity G with s = 0 and with s = 3 in one group; one-cycle G whose
    # rotations sum to R with gcd(R, q-1) = 1 and > 1 (R = 0 for prime q-1)
    identity, rotated = np.concatenate([np.arange(rho), np.zeros(rho, int)]), np.zeros(2 * rho, int)
    rotated[:rho], rotated[-1] = np.arange(rho), 3 % qm1
    rows = [identity, rotated, one_cycle(rho, qm1, 1), one_cycle(rho, qm1, qm1 // 3 * (qm1 % 3 == 0))]
    lines = RoutingReport(np.array(rows), qm1, None).render().splitlines()
    assert lines[0].endswith(" cycles=(identity)")
    for row, line in zip(rows, lines):
        assert line.endswith(" cycles=" + cycles_text(positions(row, qm1)))


@pytest.mark.parametrize("size", [1, 9, 10, 11, 99, 100, 101, 1000, 1001, 10001])
def test_report_text_where_the_digit_count_changes(size):
    # a random move, the identity and a move that fixes about half its
    # positions; sizes on both sides of each new decimal place
    rng = np.random.default_rng(size)
    some = np.flatnonzero(rng.random(size) < 0.5)
    fixing = np.arange(size)
    fixing[some] = rng.permutation(some)
    moves = np.array([rng.permutation(size), np.arange(size), fixing])
    report = fixed_wires(moves)
    lines = report.render().splitlines()
    for perm, line in zip(moves.tolist(), lines):
        assert line.endswith(" cycles=" + cycles_text(perm))
    assert lines[1].endswith(" cycles=(identity)")
    assert render_schedule(report.moves, report.qm1) == schedule_text(moves)


def test_report_text_of_distinct_random_moves_pinned():
    # moves placed from H in block order never repeat: 16 distinct seeded
    # random (G, s) rows at the 256-ary Class-II size, rho = 256, q-1 = 255
    rng = np.random.default_rng(2026)
    moves = np.array([np.concatenate([rng.permutation(256), rng.integers(0, 255, 256)]) for _ in range(16)])
    assert len(distinct_moves(moves)[0]) == 16
    digests = [
        hashlib.sha256(text.encode()).hexdigest()
        for text in (RoutingReport(moves, 255, None).render(), render_schedule(moves, 255))
    ]
    assert digests == [
        "8ec29632301d239e3e3b9310664fdeccc6f9ba34debc5f72cc39c6f25277dcaf",
        "40f35a2e5b871f8d8d17d05528e9f4f5e7ccbf5f17e810fb6bfe0a258c4a1493",
    ]


@given(repeated_moves())
@settings(max_examples=80, deadline=None)
def test_distinct_moves_in_order_of_first_use(perms):
    moves = np.array(perms)
    distinct, index = distinct_moves(moves)
    assert distinct.dtype == moves.dtype and not distinct.flags.writeable
    assert index.dtype == np.intp and index.shape == (len(moves),)
    for a, b in itertools.combinations(distinct, 2):
        assert not np.array_equal(a, b)
    # distinct row k is first used before distinct row k + 1
    assert list(dict.fromkeys(index.tolist())) == list(range(len(distinct)))
    assert np.array_equal(distinct[index], moves)


def test_class1_schedule_frozen_map():
    perm = iteration_moves(SPEC_CLASS1)[0]
    assert perm.tolist() == [8, 6, 7, 2, 0, 1, 5, 3, 4]
    # VNU 7 (group 2, slot 1) feeds VNU 3 (group 1, slot 0)
    assert perm[7] == 3


def test_class1_schedule_is_layer_invariant():
    moves = iteration_moves(CodeSpec.class1(4, 3, 5, gamma=4, rho=6))
    assert moves.shape == (4, 6 * 15)  # row t moves layer t to layer (t+1) mod 4
    for perm in moves[:-1]:
        assert np.array_equal(perm, moves[0])


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_index_matrix_properties(t):
    n = 1 << t
    idx = build_index_matrix(n)
    assert np.array_equal(idx, idx.T)
    assert np.array_equal(idx[0], np.arange(n))
    for i in range(n):
        assert sorted(idx[i]) == list(range(n))
        for j in range(n):
            assert idx[i, n - 1 - j] == n - 1 - idx[i, j]


def test_index_matrix_frozen_n4():
    expected = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    assert np.array_equal(build_index_matrix(4), expected)
    with pytest.raises(ValueError):
        build_index_matrix(3)


def test_class2_transition_moves_groups_only():
    perm = iteration_moves(SPEC_CLASS2)[0]
    qm1 = 3
    for g in range(4):
        dsts = {perm[g * qm1 + j] - j for j in range(qm1)}
        assert len(dsts) == 1  # whole group moves rigidly


def test_class2_transition_rejects_partial_groups():
    with pytest.raises(ValueError, match="group index"):
        iteration_moves(CodeSpec.class2(2, 1, gamma=2, rho=3))


@st.composite
def small_specs(draw):
    """Any Class-I or Class-II spec with m <= 4."""
    m = draw(st.integers(2, 4))
    qm1 = (1 << m) - 1
    if draw(st.booleans()):
        c = draw(st.sampled_from([c for c in range(1, qm1 + 1) if qm1 % c == 0]))
        return CodeSpec.class1(
            m, c, qm1 // c, draw(st.integers(1, qm1)), draw(st.integers(1, qm1))
        )
    dim = qm1 + 1
    return CodeSpec.class2(
        m, draw(st.integers(1, m - 1)), draw(st.integers(1, dim)), draw(st.integers(1, dim))
    )


@given(spec=small_specs())
@settings(max_examples=150, deadline=None)
def test_iteration_moves_compose_to_identity(spec):
    try:
        moves = iteration_moves(spec)
    except ValueError:
        reject()  # Class-II group moves that do not fit rho
    size, layers = spec.rho * (spec.q - 1), spec.gamma
    assert moves.shape == (layers, size)  # row t moves layer t to layer (t+1) mod layers
    assert moves.dtype == np.intp and not moves.flags.writeable
    table, qm1 = group_moves(spec), spec.q - 1
    assert table.shape == (layers, 2 * spec.rho) and table.dtype == np.intp and not table.flags.writeable
    assert (np.sort(table[:, : spec.rho]) == np.arange(spec.rho)).all()
    assert ((0 <= table[:, spec.rho :]) & (table[:, spec.rho :] < qm1)).all()
    assert moves.tolist() == [positions(row, qm1) for row in table]
    total = np.arange(size)
    for perm in moves:
        assert np.array_equal(np.sort(perm), np.arange(size))
        total = perm[total]
    assert np.array_equal(total, np.arange(size))


# ---------------------------------------------------------------------------
# Benes network
# ---------------------------------------------------------------------------


def assert_realizes(net, perm, bits):
    assert bits.dtype == np.bool_ and not bits.flags.writeable
    assert bits.shape == (net.num_stages, net.width // 2) and bits.size == net.num_switches
    assert np.array_equal(apply(bits, np.arange(net.width))[list(perm)], np.arange(net.width))


@pytest.mark.parametrize("width", [2, 4, 8, 16, 32, 64])
def test_benes_routes_random_permutations(width):
    net = BenesNetwork(width)
    rng = np.random.default_rng(width)
    for _ in range(100):
        perm = list(rng.permutation(width))
        assert_realizes(net, perm, net.route(perm))


# sha256 of the switch bits of 100 permutations from default_rng(width),
# recorded from the recursive settings tree the array replaced, flattened
# into the same (stages, width/2) layout
BENES_BITS_SHA256 = {
    2: "f8984910a774c852260f883439eec5e3782eaefafa9e73139d76f27488382e6f",
    4: "b078137772fa8a9ec371c569af40058715c957da9a45bd770e63253bdc9d02ec",
    8: "1cb6d9146dce8944605dde8617ecceda1719c39138d2ea33409bf18125078006",
    16: "b47f8ac11e1d092275f1a67aa42eb6b1b049f21d09674143e70833d06bad4483",
    32: "6e6841315209610e27758cd0cddae4fdc5ec4aea4cef42aa44dcb18901e533f7",
    64: "2a240d6bd0c07bd7d153ab007fff61c84cfb37872a0d8d9bfde2a09b52d7c361",
    256: "8d0a519f11bf15bbffb7246ca6e9e1de500f296747677d1396a281a2da4f9483",
}


@pytest.mark.parametrize("width", sorted(BENES_BITS_SHA256))
def test_benes_bits_pinned(width):
    net = BenesNetwork(width)
    rng = np.random.default_rng(width)
    digest = hashlib.sha256()
    for _ in range(100):
        digest.update(net.route(list(rng.permutation(width))).tobytes())
    assert digest.hexdigest() == BENES_BITS_SHA256[width]


def test_benes_bits_pinned_q32_group_maps():
    # the distinct group maps of the 32-ary (992, 496) Class-II code, pinned
    # as above
    spec = CodeSpec.class2(5, 4, gamma=16, rho=32)
    maps = dict.fromkeys(tuple(row[: spec.rho].tolist()) for row in group_moves(spec))
    assert len(maps) == 4
    net, digest = BenesNetwork(32), hashlib.sha256()
    for group_map in maps:
        bits = net.route(group_map)
        assert_realizes(net, group_map, bits)
        digest.update(bits.tobytes())
    assert digest.hexdigest() == "d757cba2fe090f8e639c3cc4aca575e4a889fab59ad417848afd1fd6c8b89ee9"


def test_benes_counts():
    net = BenesNetwork(32)
    assert net.num_stages == 9
    assert net.num_switches == 144
    assert net.route(range(32)).size == 144  # one control bit per switch
    assert BenesNetwork(2).num_stages == 1
    assert BenesNetwork(2).num_switches == 1
    assert BenesNetwork(8).num_switches == 20
    with pytest.raises(ValueError):
        BenesNetwork(6)
    with pytest.raises(ValueError):
        BenesNetwork(1)


def test_benes_rejects_bad_permutation():
    with pytest.raises(ValueError):
        BenesNetwork(4).route([0, 0, 1, 2])


@given(st.permutations(list(range(16))))
@settings(max_examples=60, deadline=None)
def test_benes_property(perm):
    net = BenesNetwork(16)
    assert_realizes(net, perm, net.route(list(perm)))


def test_unified_class1_pads_to_power_of_two():
    # the rho = 20 Class-I group shift, padded with idle terminals to 32
    group_map = [(i - 1) % 20 for i in range(20)] + list(range(20, 32))
    net = BenesNetwork(32)
    assert (net.width, net.num_stages, net.num_switches) == (32, 9, 144)
    assert_realizes(net, group_map, net.route(group_map))


# ---------------------------------------------------------------------------
# routing reports
# ---------------------------------------------------------------------------


def test_route_schedule_class1_fixed_wires():
    report = route_schedule(SPEC_CLASS1)
    assert report.network is None
    assert report.total_control_bits == 0
    assert "fixed interconnections" in report.render()


def test_route_schedule_class2_benes():
    report = route_schedule(SPEC_CLASS2)
    assert len(report.moves) == SPEC_CLASS2.gamma
    assert report.network.num_stages == 3  # width 4
    assert report.network.num_switches == 6
    assert report.total_control_bits == SPEC_CLASS2.gamma * 6
    assert "realized=yes" in report.render()


def test_route_and_render_each_distinct_move_once(monkeypatch):
    # the 32-ary (992, 496) headline code: 16 moves, 4 distinct XOR offsets
    calls = {"route": 0, "cycles": 0}
    route, cycle_order = BenesNetwork.route, shuffle._cycle_order

    def counted_route(self, perm):
        calls["route"] += 1
        return route(self, perm)

    def counted_cycle_order(perm):
        calls["cycles"] += 1
        return cycle_order(perm)

    monkeypatch.setattr(BenesNetwork, "route", counted_route)
    monkeypatch.setattr(shuffle, "_cycle_order", counted_cycle_order)
    report = route_schedule(CodeSpec.class2(5, 4, gamma=16, rho=32))
    report.render()
    assert len(report.moves) == 16
    assert report.total_control_bits == 16 * 144
    assert calls == {"route": 4, "cycles": 4}


# ---------------------------------------------------------------------------
# schedule-driven decoding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [SPEC_CLASS1, SPEC_CLASS2])
def test_schedule_driven_matches_direct(spec):
    h, _, _, fld = build_code(spec)
    schedule = build_layer_schedule(h, LAYER_I)
    sigma = snr_to_sigma(2.0, 0.5)
    config = DecoderConfig(max_iter=5, trace=True)
    for t in range(10):
        rng = np.random.default_rng(np.random.SeedSequence(77, spawn_key=(0, t)))
        channel = channel_reliability(np.zeros(h.cols, dtype=int), sigma, fld, rng)
        direct = decode(h, schedule, channel, fld, config)
        shuffled = schedule_driven_decode(spec, h, channel, fld, config)
        assert np.array_equal(direct.symbols, shuffled.symbols)
        assert direct.iterations == shuffled.iterations
        assert len(direct.trace) == len(shuffled.trace)
        for a, b in zip(direct.trace, shuffled.trace):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", [SPEC_CLASS1, SPEC_CLASS2])
def test_schedule_driven_stack_matches_frames_alone(spec):
    h, _, _, fld = build_code(spec)
    sigma = snr_to_sigma(1.0, 0.5)
    config = DecoderConfig(max_iter=5, quant=(4, 1), trace=True)
    stack = np.stack([
        channel_reliability(
            np.zeros(h.cols, dtype=int), sigma, fld,
            np.random.default_rng(np.random.SeedSequence(77, spawn_key=(0, t))),
        )
        for t in range(10)
    ])
    batched = schedule_driven_decode(spec, h, stack, fld, config)
    assert len({r.iterations for r in batched}) > 1
    schedule = build_layer_schedule(h, LAYER_I)
    for channel, result in zip(stack, batched):
        for alone in (
            schedule_driven_decode(spec, h, channel, fld, config),
            decode(h, schedule, channel, fld, config),
        ):
            assert np.array_equal(alone.symbols, result.symbols)
            assert alone.iterations == result.iterations
            assert len(alone.trace) == len(result.trace)
            for a, b in zip(alone.trace, result.trace):
                assert np.array_equal(a, b)


def test_schedule_driven_detects_misalignment(monkeypatch):
    # a wrong transition map must trip the wiring assertion, proving the
    # alignment check is live, and before any layer is decoded
    spec = SPEC_CLASS2
    h, _, _, fld = build_code(spec)
    channel = [np.zeros(fld.q) for _ in range(h.cols)]
    import nbqc
    import nbqc.decode as decode_mod
    import nbqc.shuffle as shuffle_mod

    # the package defines no public name: its only attributes are its submodules
    public = [v for k, v in vars(nbqc).items() if not k.startswith("_")]
    assert all(isinstance(v, types.ModuleType) for v in public)

    orig = shuffle_mod.iteration_moves

    def broken(spec_):
        moves = orig(spec_).copy()
        moves[0, [0, 3]] = moves[0, [3, 0]]
        return moves

    calls = []
    monkeypatch.setattr(shuffle_mod, "iteration_moves", broken)
    monkeypatch.setattr(decode_mod, "update_layer", lambda *args: calls.append(args))
    with pytest.raises(AssertionError, match="misalignment"):
        schedule_driven_decode(spec, h, channel, fld, DecoderConfig(max_iter=2))
    assert not calls


def decodable_specs(max_m):
    """Every spec with m <= max_m whose H cuts into LAYER_I layers."""
    for m in range(2, max_m + 1):
        qm1 = (1 << m) - 1
        shapes = [(g, r) for g in range(1, qm1 + 2) for r in range(1, qm1 + 2)]
        specs = [
            CodeSpec.class1(m, c, qm1 // c, g, r)
            for c in range(1, qm1 + 1) if qm1 % c == 0 and np.gcd(c, qm1 // c) == 1
            for g, r in shapes if max(g, r) <= qm1
        ] + [CodeSpec.class2(m, t, g, r) for t in range(1, m) for g, r in shapes]
        for spec in specs:
            h, _, _, fld = build_code(spec)
            try:
                build_layer_schedule(h, LAYER_I)
            except ValueError:
                continue
            yield spec, h, fld


def schedule_verdict(spec, h, fld):
    """The refusal of `schedule_driven_decode` (type and text), or the
    sha256 of the symbols it decodes from two fixed -2 dB frames."""
    sigma = snr_to_sigma(-2.0, 0.5)
    stack = np.stack([
        channel_reliability(
            np.zeros(h.cols, dtype=int), sigma, fld,
            np.random.default_rng(np.random.SeedSequence(8, spawn_key=(f,))),
        )
        for f in range(2)
    ])
    try:
        results = schedule_driven_decode(spec, h, stack, fld, DecoderConfig(max_iter=3))
    except (AssertionError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    symbols = np.stack([r.symbols for r in results]).astype(np.int64)
    return hashlib.sha256(symbols.tobytes()).hexdigest()


def test_schedule_verdicts_pinned():
    # 180 specs with m <= 3: 42 decode, 70 misalign, 68 raise ValueError
    lines = [schedule_verdict(*code) for code in decodable_specs(3)]
    kinds = [line.split(":")[0] if ":" in line else "decoded" for line in lines]
    assert [kinds.count(k) for k in ("decoded", "AssertionError", "ValueError")] == [42, 70, 68]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e775c0692ea6d2a2e0afeb9727e3b8fa69c4baa33ce1c20005e3dbed97768a17"
