"""Min-Max decoding: message algebra, check node, quantization, decoding."""

import functools
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbqc.codefile import read_code, write_code
from nbqc.construct import CodeSpec, ParityCheck, build_code
from nbqc.decode import (
    LAYER_I,
    WORKSPACE,
    DecoderConfig,
    _decode_frames,
    _minmax_kernel,
    build_layer_schedule,
    channel_reliability,
    check_node_min_max,
    decode,
    hard_channel,
    hard_decision,
    message_dtype,
    normalize,
    run_monte_carlo,
    snr_to_sigma,
    syndrome_zero,
    update_layer,
)
from nbqc.gf import GF2m
from oracles import (
    BACKWARD,
    FORWARD,
    channel_reliability_products,
    check_node_brute_force,
    minmax_kernel_table,
    permute_message,
    quantize_vec,
)


def check_node_brute_force_loop(inputs):
    """Scalar-loop variant of the enumeration oracle (small cases only)."""
    d, q = len(inputs), len(inputs[0])
    outs = []
    for i in range(d):
        others = [j for j in range(d) if j != i]
        out = [np.inf] * q
        for combo in itertools.product(range(q), repeat=len(others)):
            a = 0
            m = 0.0
            for j, aj in zip(others, combo):
                a ^= aj
                m = max(m, float(inputs[j][aj]))
            out[a] = min(out[a], m)
        outs.append(normalize(np.array(out)))
    return outs


def quantize(x: float, b_q: int, b_f: int) -> float:
    """Scalar reference for quantize_vec: round to the nearest multiple of
    2^-b_f (ties up), saturating at (2^b_q - 1) * 2^-b_f."""
    step = 2.0 ** (-b_f)
    return float(min(np.floor(x / step + 0.5) * step, (2**b_q - 1) * step))


def fig_code_class2():
    spec = CodeSpec.class2(2, 1, gamma=2, rho=4)
    h, _, _, fld = build_code(spec)
    return h, fld


# the acceptance suite's SANITY_SPECS
SANITY_SPECS = [
    CodeSpec.class1(2, 1, 3, gamma=2, rho=3),
    CodeSpec.class1(4, 3, 5, gamma=3, rho=6),
    CodeSpec.class2(2, 1, gamma=2, rho=4),
    CodeSpec.class2(3, 1, gamma=3, rho=6),
]


def assert_same_result(alone, batched):
    assert np.array_equal(alone.symbols, batched.symbols)
    assert alone.iterations == batched.iterations
    assert alone.syndrome_zero == batched.syndrome_zero
    assert len(alone.trace) == len(batched.trace)
    for a, b in zip(alone.trace, batched.trace):
        assert np.array_equal(a, b)


def frame_stack(h, fld, snrs, seed):
    """One all-zero frame per SNR, frame 0 noiseless so that it stops
    after the first iteration."""
    frames = [hard_channel(np.zeros(h.cols, dtype=int), fld)]
    for t, snr in enumerate(snrs[1:]):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        sigma = snr_to_sigma(snr, 0.5)
        frames.append(channel_reliability(np.zeros(h.cols, dtype=int), sigma, fld, rng))
    return np.stack(frames)


# ---------------------------------------------------------------------------
# message permutation
# ---------------------------------------------------------------------------


def test_permute_gf4_example():
    fld = GF2m(2)
    msg = np.array([10.0, 11.0, 12.0, 13.0])
    # h = alpha: out[a] = msg[alpha^-1 * a]; alpha^-1 = alpha^2 = 3
    out = permute_message(msg, 2, FORWARD, fld)
    assert list(out) == [10.0, 13.0, 11.0, 12.0]


def test_permute_identity_label():
    fld = GF2m(3)
    msg = np.arange(8.0)
    assert np.array_equal(permute_message(msg, 1, FORWARD, fld), msg)
    assert np.array_equal(permute_message(msg, 1, BACKWARD, fld), msg)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_permute_round_trip(m):
    fld = GF2m(m)
    rng = np.random.default_rng(m)
    for h in range(1, fld.q):
        msg = rng.random(fld.q)
        back = permute_message(permute_message(msg, h, FORWARD, fld), h, BACKWARD, fld)
        assert np.array_equal(back, msg)


def test_permute_batched_labels_match_single():
    fld = GF2m(3)
    rng = np.random.default_rng(4)
    msgs = rng.random((5, 3, fld.q))
    labels = rng.integers(1, fld.q, (5, 3))
    for direction in (FORWARD, BACKWARD):
        batched = permute_message(msgs, labels, direction, fld)
        for i in range(5):
            for j in range(3):
                single = permute_message(msgs[i, j], int(labels[i, j]), direction, fld)
                assert np.array_equal(batched[i, j], single)
    with pytest.raises(ValueError):
        permute_message(msgs, np.zeros((5, 3), dtype=int), FORWARD, fld)


def test_permute_rejects_zero_label_and_bad_direction():
    fld = GF2m(2)
    msg = np.zeros(4)
    with pytest.raises(ValueError):
        permute_message(msg, 0, FORWARD, fld)
    with pytest.raises(ValueError):
        permute_message(msg, 1, "sideways", fld)


# ---------------------------------------------------------------------------
# check node
# ---------------------------------------------------------------------------


def one_row(inputs) -> np.ndarray:
    """One check row of d messages as (q, d, 1) check-node lanes."""
    return np.stack(inputs, axis=1)[..., None]


def least_workspace(x: np.ndarray) -> np.ndarray:
    """The least check-node workspace for the (q, d, L) lanes x: 2 L q^2
    entries of x's dtype."""
    q, _, rows = x.shape
    return np.empty(2 * rows * q * q, x.dtype)


def min_max(x: np.ndarray, ws: np.ndarray | None = None) -> np.ndarray:
    """check_node_min_max on the (q, d, L) lanes x into a strided view of
    a larger store, with the least workspace unless `ws` is given."""
    out = np.zeros(x.shape[:2] + (2,) + x.shape[2:], x.dtype)[:, :, 1]
    got = check_node_min_max(x, least_workspace(x) if ws is None else ws, out)
    assert got is out
    return got


def test_minmax_kernel_frozen_example():
    a = np.array([0.0, 1.0, 2.0, 3.0])
    b = np.array([0.0, 3.0, 1.0, 2.0])
    assert list(_minmax_kernel(a, b, np.empty(16), np.empty(4))) == [0.0, 1.0, 1.0, 1.0]
    # the same messages as uint8 codes run the same gather, in their dtype
    codes = _minmax_kernel(a.astype(np.uint8), b.astype(np.uint8), np.empty(2), np.empty(4, np.uint8))
    assert codes.dtype == np.uint8 and list(codes) == [0, 1, 1, 1]


@given(
    st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]),
    st.sampled_from([np.float64, np.uint8, np.uint16]),
    st.sampled_from([(), (3,), (2, 3)]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_minmax_kernel_matches_table(q, dtype, trail, strided, out_view, float_ws, seed):
    rng = np.random.default_rng(seed)
    top = 2 ** (8 * np.dtype(dtype).itemsize) - 1 if np.dtype(dtype).kind == "u" else 40
    # few distinct values, so that ties are common
    pool = rng.integers(0, top, 5, endpoint=True)
    ab = rng.choice(pool, (q, 2) + trail).astype(dtype)
    if dtype == np.float64:
        ab *= rng.random()
    # a and b are every other entry of the stack, like the check node's chain[:, k]
    a, b = (ab[:, 0], ab[:, 1]) if strided else (ab[:, 0].copy(), ab[:, 1].copy())
    before = ab.copy()
    want = minmax_kernel_table(a, b)
    # float64 whatever the dtype, as the decoder's, or exactly a.nbytes * q bytes of a's dtype
    ws = np.empty(a.nbytes * q // 8 + 1) if float_ws else np.empty(a.size * q, dtype)
    out = np.empty((q, 2) + trail, dtype)[:, 1] if out_view else np.empty(a.shape, dtype)
    got = _minmax_kernel(a, b, ws, out)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(ab, before)
    assert np.shares_memory(got, out)


def test_check_node_degree2_passthrough():
    # inputs of minimum 0, the check node's precondition
    a = np.array([0.0, 1.0, 2.0, 3.0])
    b = np.array([1.0, 4.0, 0.0, 3.0])
    outs = min_max(one_row([a, b]))
    assert outs.shape == (4, 2, 1)
    assert np.array_equal(outs[:, 0, 0], b)
    assert np.array_equal(outs[:, 1, 0], a)


def assert_lanes_match_brute_force(x, got, atol=None):
    """Each lane x[:, :, l] of a check-node call against the enumeration oracle."""
    for l in range(x.shape[2]):
        slow = check_node_brute_force(list(x[:, :, l].T))
        for i, s in enumerate(slow):
            f = got[:, i, l]
            assert np.array_equal(f, s) if atol is None else np.allclose(f, s, atol=atol)


@pytest.mark.parametrize("q", [4, 8])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_check_node_matches_brute_force(q, d):
    # the 50 rows of d messages each, one lane a row, in one call
    rng = np.random.default_rng(q * 10 + d)
    x = normalize(rng.random((50, d, q)) * 8).T
    assert_lanes_match_brute_force(x, min_max(x), atol=1e-12)


def test_brute_force_oracles_agree():
    rng = np.random.default_rng(3)
    for q, d in [(4, 3), (4, 4), (8, 3)]:
        inputs = [normalize(rng.random(q) * 5) for _ in range(d)]
        vec = check_node_brute_force(inputs)
        loop = check_node_brute_force_loop(inputs)
        for a, b in zip(vec, loop):
            assert np.allclose(a, b, atol=1e-12)


def test_check_node_outputs_normalized():
    # normalized inputs give outputs of minimum exactly 0 without a re-normalization
    rng = np.random.default_rng(0)
    inputs = [normalize(rng.random(8) * 4) for _ in range(4)]
    assert (min_max(one_row(inputs)).min(axis=0) == 0.0).all()


def test_check_node_degree_guards():
    # the check node needs d >= 2; decode refuses a schedule with a layer of fewer edges
    h, fld = fig_code_class2()
    schedule = list(build_layer_schedule(h, LAYER_I))
    schedule[1] = tuple(a[:, :1] for a in schedule[1])
    channel = hard_channel(np.zeros(h.cols, dtype=int), fld)
    with pytest.raises(ValueError, match=r"rows 3\.\.5 have check degree 1; need >= 2"):
        decode(h, schedule, channel, fld, DecoderConfig(max_iter=1))
    with pytest.raises(ValueError):
        check_node_brute_force([normalize(np.random.default_rng(0).random(256)) for _ in range(4)])


@given(
    st.integers(min_value=2, max_value=4),
    st.lists(
        st.floats(min_value=0, max_value=16, allow_nan=False, width=32),
        min_size=16,
        max_size=16,
    ),
)
@settings(max_examples=50, deadline=None)
def test_check_node_property(d, flat):
    q = 4
    x = one_row([normalize(np.array(flat[i * q : (i + 1) * q])) for i in range(d)])
    assert_lanes_match_brute_force(x, min_max(x), atol=1e-9)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=5),
    st.sampled_from([4, 8]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_batched_check_node_matches_brute_force_rows(rows, d, q, seed):
    rng = np.random.default_rng(seed)
    x = normalize(rng.integers(0, 16, (rows, d, q)) * rng.random()).T  # (q, d, rows)
    out = min_max(x)
    assert out.shape == x.shape
    assert_lanes_match_brute_force(x, out)


@given(
    st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_check_node_on_codes_matches_float(q, d, b_q, b_f, rows, seed):
    # quantizer codes k stand for k * 2^-b_f; min and max only select, so
    # the check node on codes is the float check node, scaled
    rng = np.random.default_rng(seed)
    top = 2**b_q - 1
    codes = rng.integers(0, top, (rows, d, q), endpoint=True, dtype=np.min_scalar_type(top))
    codes[rng.random(codes.shape) < 0.2] = top  # saturated messages
    x = codes.T  # (q, d, rows)
    step = 2.0 ** -min(b_f, b_q - 1)
    out = min_max(x)
    assert out.dtype == codes.dtype
    assert np.array_equal(out * step, min_max(x * step))


@pytest.mark.parametrize("dtype", [np.float64, np.uint8])
def test_check_node_leaves_inputs_and_ignores_layout(dtype):
    rng = np.random.default_rng(12)
    x = np.ascontiguousarray(rng.integers(0, 20, (5, 4, 16)).astype(dtype).T)  # (q, d, rows)
    kept = x.copy()
    want = check_node_min_max(x, least_workspace(x), np.empty_like(x))
    assert np.array_equal(x, kept)
    spread = np.zeros((32, 8, 5), dtype)
    spread[::2, ::2] = x
    views = [spread[::2, ::2], np.asfortranarray(x), x[::-1].copy()[::-1]]
    for view in views:
        assert not view.flags.c_contiguous
        assert np.array_equal(min_max(view), want)
        assert np.array_equal(view, kept)


def test_check_node_workspace_size_does_not_change_result():
    # the least workspace runs the middle outputs two at a time, the
    # decoder's 1 MB one all four at once
    rng = np.random.default_rng(8)
    x = normalize(rng.random((3, 6, 8))).T
    assert np.array_equal(min_max(x), min_max(x, np.empty(WORKSPACE)))


@given(
    st.sampled_from([4, 8, 16, 32, 64, 128, 256]),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([np.float64, np.uint8, np.uint16]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_check_node_matches_leave_one_out_table(q, d, lanes, dtype, small_ws, seed):
    # on (q, d, L) lanes written into a strided view like a chunk of stored
    # check messages, against a leave-one-out combination by the kernel's
    # table oracle
    rng = np.random.default_rng(seed)
    top = 2 ** (8 * np.dtype(dtype).itemsize) - 1 if np.dtype(dtype).kind == "u" else 40
    pool = rng.integers(0, top, 4, endpoint=True)  # few distinct values, so that ties are common
    x = rng.choice(pool, (q, d, lanes)).astype(dtype)
    if dtype == np.float64:
        x *= rng.random()
    x -= x.min(axis=0)
    kept = x.copy()
    size = 2 * lanes * q * q  # the least workspace, or the decoder's where it suffices
    ws = np.empty(size, dtype) if small_ws else np.empty(max(size, WORKSPACE))
    store = np.zeros((q, d, 2, lanes), dtype)
    got = check_node_min_max(x, ws, store[:, :, 1])
    assert np.shares_memory(got, store) and not store[:, :, 0].any()
    for i in range(d):
        others = [x[:, j] for j in range(d) if j != i]
        want = functools.reduce(minmax_kernel_table, others)
        assert np.array_equal(got[:, i], want)
    assert np.array_equal(x, kept)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def test_quantize_examples():
    assert quantize(100.0, 5, 1) == 15.5  # saturation at (2^5 - 1) / 2
    assert quantize(1.3, 5, 1) == 1.5
    assert quantize(1.25, 5, 1) == 1.5  # ties round up
    assert quantize(0.0, 5, 1) == 0.0
    assert quantize(0.24, 5, 1) == 0.0


def test_quantize_vec_matches_scalar():
    rng = np.random.default_rng(1)
    vec = rng.random(64) * 40
    got = quantize_vec(vec, (6, 2))
    for x, y in zip(vec, got):
        assert quantize(float(x), 6, 2) == y
    assert quantize_vec(vec, (6, 2), out=vec) is vec
    assert np.array_equal(vec, got)


def test_quant_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(quant=(4, 4))
    for b_f in (-1, -20):  # a step of 2^-b_f > 1 rounds every posterior to 0, a tie that decodes as symbol 0
        with pytest.raises(ValueError, match=r"0 <= b_f < b_q, got \(6, " + str(b_f)):
            DecoderConfig(quant=(6, b_f))
    for b_q in (0, -1, 17, 32):  # the check node runs on unsigned codes of at most 16 bits
        with pytest.raises(ValueError, match=r"1 <= b_q <= 16"):
            DecoderConfig(quant=(b_q, b_q - 1))
    for quant in ((5, 1), (1, 0), (16, 8)):
        DecoderConfig(quant=quant)


def test_config_rejects_no_iterations():
    with pytest.raises(ValueError, match="max_iter"):
        DecoderConfig(max_iter=0)
    # SeedSequence refuses it too, but only once the sweep has started
    with pytest.raises(ValueError, match=r"^rng_seed must be non-negative, got -1$"):
        DecoderConfig(rng_seed=-1)


# ---------------------------------------------------------------------------
# schedules and channels
# ---------------------------------------------------------------------------


def test_layer_schedules():
    h, fld = fig_code_class2()
    s1 = build_layer_schedule(h, LAYER_I)
    assert len(s1) == h.num_block_rows
    assert all(len(cols) == len(labels) == fld.q - 1 for cols, labels in s1)
    for partition in ("layer2", "layer3"):  # the CPM block row is the only layer
        with pytest.raises(ValueError, match="unknown partition"):
            build_layer_schedule(h, partition)


def test_layer_schedule_rejects_degree_one_checks():
    # a single block column of a gamma=1, rho=2 Class-I code is all zeros,
    # so every row of H has one edge
    h, _, _, _ = build_code(CodeSpec.class1(3, 1, 7, gamma=1, rho=2))
    assert all(cols.shape[1] == 1 for cols, _ in h.layers)
    with pytest.raises(ValueError, match=r"rows 0\.\.\d+ have check degree 1"):
        build_layer_schedule(h, LAYER_I)


def test_decode_rejects_degree_one_checks():
    # decode takes any schedule, so it refuses the degree-1 layers itself,
    # with build_layer_schedule's message, before a check node runs
    h, _, _, fld = build_code(CodeSpec.class1(3, 1, 7, gamma=1, rho=2))
    channel = hard_channel(np.zeros(h.cols, dtype=int), fld)
    with pytest.raises(ValueError, match=r"rows 0\.\.6 have check degree 1; need >= 2"):
        decode(h, h.layers, channel, fld, DecoderConfig(max_iter=1))


def test_layer_schedule_dense_form_matches_rows():
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    qm1 = fld.q - 1
    for b, (cols, labels) in enumerate(schedule):
        assert cols.shape == labels.shape == (qm1, len(h.row_entries[b * qm1]))
        for r, c_row, l_row in zip(range(b * qm1, (b + 1) * qm1), cols, labels):
            assert np.array_equal(np.column_stack((c_row, l_row)), h.row_entries[r])


def test_channel_reliability_properties():
    fld = GF2m(3)
    rng = np.random.default_rng(9)
    msgs = channel_reliability([3, 0, 7], 0.8, fld, rng)
    assert len(msgs) == 3
    for vec in msgs:
        assert vec.shape == (8,)
        assert vec.min() == 0.0
    # 1e-154 squares to 1e-308, so 2/sigma^2 overflows; 1e160 squares to inf
    for sigma in (0.0, float("nan"), float("inf"), -1.0, 1e-154, 1e-200, 1e160):
        with pytest.raises(ValueError, match="finite"):
            channel_reliability([0], sigma, fld, rng)
        with pytest.raises(ValueError, match="finite"):
            channel_reliability([0], [0.8, sigma], fld, [rng, rng])


def test_channel_reliability_matches_symbol_loop():
    # one (n, m) draw is the same stream as n draws of m, symbol by symbol
    for m in (2, 3, 5, 6, 8):
        fld = GF2m(m)
        tx = np.random.default_rng(m).integers(0, fld.q, 40)
        got = channel_reliability(tx, 0.9, fld, np.random.default_rng(m + 50))
        rng = np.random.default_rng(m + 50)
        bit_table = (np.arange(fld.q)[:, None] >> np.arange(m)[None, :]) & 1
        for sym, vec in zip(tx, got):
            bits = np.array([(int(sym) >> i) & 1 for i in range(m)])
            y = (1.0 - 2.0 * bits) + 0.9 * rng.standard_normal(m)
            mag = np.abs(2.0 * y / 0.9**2)
            want = ((bit_table != (y < 0).astype(int)[None, :]) * mag[None, :]).sum(axis=1)
            assert np.array_equal(vec, want - want.min())


@given(
    st.integers(min_value=2, max_value=8),
    st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_channel_reliability_matches_products(m, sigmas, symbols, seed):
    fld = GF2m(m)
    tx = np.random.default_rng(seed).integers(0, fld.q, symbols)
    keys = [np.random.SeedSequence(seed, spawn_key=(f,)) for f in range(len(sigmas))]
    got = channel_reliability(tx, sigmas, fld, [np.random.default_rng(k) for k in keys])
    want = channel_reliability_products(tx, sigmas, fld, [np.random.default_rng(k) for k in keys])
    assert np.array_equal(got, want)
    rng, ref = np.random.default_rng(keys[0]), np.random.default_rng(keys[0])
    assert np.array_equal(
        channel_reliability(tx, sigmas[0], fld, rng), channel_reliability_products(tx, sigmas[0], fld, ref)
    )


def test_hard_channel():
    fld = GF2m(2)
    msgs = hard_channel([2], fld)
    assert msgs[0][2] == 0.0
    assert all(msgs[0][a] > 0 for a in (0, 1, 3))


def test_snr_to_sigma():
    assert snr_to_sigma(0.0, 0.5) == 1.0
    assert snr_to_sigma(10.0, 0.5) == pytest.approx(1 / np.sqrt(10))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_noiseless_decode_one_iteration():
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    channel = hard_channel(np.zeros(h.cols, dtype=int), fld)
    result = decode(h, schedule, channel, fld, DecoderConfig())
    assert result.syndrome_zero
    assert result.iterations == 1
    assert np.array_equal(result.symbols, np.zeros(h.cols))


def test_decode_corrects_moderate_noise():
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    sigma = snr_to_sigma(4.0, (h.cols - h.rows) / h.cols)
    rng = np.random.default_rng(21)
    ok = 0
    for _ in range(50):
        channel = channel_reliability(np.zeros(h.cols, dtype=int), sigma, fld, rng)
        result = decode(h, schedule, channel, fld, DecoderConfig(max_iter=10))
        ok += int(result.syndrome_zero and not result.symbols.any())
    assert ok >= 45


def test_quantized_decode_preserves_decisions():
    # 8-bit messages with 4 fractional bits never flip a hard decision on
    # this code at this SNR (regression guard for the quantized path)
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    sigma = snr_to_sigma(2.0, 0.5)
    for t in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(0, t)))
        channel = channel_reliability(np.zeros(h.cols, dtype=int), sigma, fld, rng)
        a = decode(h, schedule, channel, fld, DecoderConfig(max_iter=10))
        b = decode(h, schedule, channel, fld, DecoderConfig(max_iter=10, quant=(8, 4)))
        assert np.array_equal(a.symbols, b.symbols)


@given(
    st.sampled_from(range(len(SANITY_SPECS))),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([None, (4, 1), (3, 0)]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_decode_stack_matches_frames_alone(spec_index, frames, quant, max_iter, seed):
    h, _, _, fld = build_code(SANITY_SPECS[spec_index])
    schedule = build_layer_schedule(h, LAYER_I)
    snrs = np.random.default_rng(seed).uniform(0.0, 4.0, frames)
    stack = frame_stack(h, fld, snrs, seed)
    config = DecoderConfig(max_iter=max_iter, quant=quant, trace=True)
    batched = decode(h, schedule, stack, fld, config)
    assert len(batched) == frames
    for channel, result in zip(stack, batched):
        assert_same_result(decode(h, schedule, channel, fld, config), result)


def test_decode_stack_frames_stop_at_their_own_iteration():
    h, _, _, fld = build_code(SANITY_SPECS[1])
    schedule = build_layer_schedule(h, LAYER_I)
    stack = frame_stack(h, fld, [0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 1.0, 0.5], 5)
    config = DecoderConfig(max_iter=6, quant=(4, 1), trace=True)
    batched = decode(h, schedule, stack, fld, config)
    assert len({r.iterations for r in batched}) >= 3
    assert {r.syndrome_zero for r in batched} == {True, False}
    for channel, result in zip(stack, batched):
        assert_same_result(decode(h, schedule, channel, fld, config), result)


def q_major(post, r_msg):
    """(F, columns, q) posteriors and (F, rows, d, q) check messages in the
    decoder's layout: (columns * q, F) and (q, d, rows, F)."""
    return post.reshape(len(post), -1).T.copy(), np.ascontiguousarray(r_msg.transpose(3, 2, 1, 0))


def frame_major(post, r_msg, q):
    """The inverse of q_major."""
    return post.T.reshape(post.shape[1], -1, q), r_msg.transpose(3, 2, 1, 0)


def test_update_layer_chunks_do_not_change_result():
    # a workspace of 3 (frame, row) pairs of the check node's dtype splits
    # the 5 frames x 15 rows into single-row chunks of 3 frames and 2 frames
    h, _, _, fld = build_code(SANITY_SPECS[1])
    schedule = build_layer_schedule(h, LAYER_I)
    cols, labels = schedule[0]
    for quant, dtype in ((None, float), ((5, 1), np.uint8), ((10, 4), np.uint16)):
        rng = np.random.default_rng(6)
        post = normalize(rng.random((5, h.cols, fld.q)) * 8)
        top = 1 if quant is None else 2 ** quant[0] - 1
        r_msg = normalize(rng.random((5,) + cols.shape + (fld.q,)) * top).astype(dtype)
        post, r_msg = q_major(post, r_msg)
        small = (post.copy(), r_msg.copy())
        ws = np.empty(3 * 2 * fld.q**2, dtype)
        update_layer(small[0], cols, labels, small[1], fld, quant, ws)
        update_layer(post, cols, labels, r_msg, fld, quant, np.empty(WORKSPACE))
        assert np.array_equal(small[0], post)
        assert np.array_equal(small[1], r_msg)


def reference_update_layer(post, cols, labels, r_msg, fld, quant):
    """update_layer with the edge labels applied by permute_message around
    the check node, float messages rounded by quantize_vec, and the check
    messages stored unpermuted as floats."""
    codes = None if quant is None else np.min_scalar_type(2 ** quant[0] - 1)
    scale = 1.0 if quant is None else 2.0 ** quant[1]
    l_cv = quantize_vec(normalize(post[:, cols] - r_msg), quant)
    x = l_cv if codes is None else (l_cv * scale).astype(codes)
    flat = permute_message(x, labels, FORWARD, fld).reshape((-1,) + x.shape[2:])
    out = min_max(flat.T).T.reshape(l_cv.shape)
    r_msg[:] = permute_message(out, labels, BACKWARD, fld) / scale
    post[:, cols] = quantize_vec(normalize(l_cv + r_msg), quant)


@given(
    st.sampled_from(range(len(SANITY_SPECS))),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([None, (4, 1), (10, 4)]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_update_layer_matches_reference(spec_index, frames, quant, seed):
    h, _, _, fld = build_code(SANITY_SPECS[spec_index])
    schedule = build_layer_schedule(h, LAYER_I)
    snrs = np.random.default_rng(seed).uniform(0.0, 4.0, frames)
    ref = normalize(frame_stack(h, fld, snrs, seed))
    ref_msg = [np.zeros((frames,) + c.shape + (fld.q,)) for c, _ in schedule]
    post, _ = q_major(ref, ref_msg[0])
    r_msg = [q_major(ref, r.astype(message_dtype(quant)))[1] for r in ref_msg]
    unit = 1.0 if quant is None else 2.0 ** -quant[1]  # the float value of one code step
    ws = np.empty(WORKSPACE)
    for _ in range(2):
        for t, (cols, labels) in enumerate(schedule):
            update_layer(post, cols, labels, r_msg[t], fld, quant, ws)
            reference_update_layer(ref, cols, labels, ref_msg[t], fld, quant)
            got_post, got_msg = frame_major(post, r_msg[t], fld.q)
            assert np.array_equal(got_post, ref)
            assert np.array_equal(got_msg * unit, permute_message(ref_msg[t], labels, FORWARD, fld))


@pytest.mark.parametrize(
    "quant, dtype", [(None, np.float64), ((1, 0), np.uint8), ((6, 2), np.uint8), ((10, 4), np.uint16)]
)
def test_decode_stores_check_messages_as_codes(monkeypatch, quant, dtype):
    import nbqc.decode as module

    layer, stored = module.update_layer, set()

    def recorded(post, cols, labels, r_msg, *rest):
        stored.add(r_msg.dtype)
        layer(post, cols, labels, r_msg, *rest)

    monkeypatch.setattr(module, "update_layer", recorded)
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    channel = frame_stack(h, fld, [0.0, 1.0, 2.0], 4)
    assert message_dtype(quant) == dtype
    decode(h, schedule, channel, fld, DecoderConfig(max_iter=3, quant=quant))
    assert stored == {np.dtype(dtype)}


@pytest.mark.parametrize("quant, calls", [((6, 2), 10), (None, 40)])
def test_update_layer_check_node_calls(monkeypatch, quant, calls):
    # one iteration of the 64-ary (1260, 630) code: ten 63-row layers, each
    # one check-node call on uint8 codes (128 pairs fit the workspace) or
    # four as float64 (16 pairs)
    import nbqc.decode as module

    h, _, _, fld = build_code(CodeSpec.class1(6, 7, 9, gamma=10, rho=20))
    schedule = build_layer_schedule(h, LAYER_I)
    rows = []
    check_node = module.check_node_min_max
    monkeypatch.setattr(
        module, "check_node_min_max", lambda x, ws, out: rows.append(x[0, 0].size) or check_node(x, ws, out)
    )
    channel = hard_channel(np.zeros(h.cols, dtype=int), fld)
    decode(h, schedule, channel, fld, DecoderConfig(max_iter=1, quant=quant))
    assert len(rows) == calls
    assert sum(rows) == h.rows


@pytest.mark.parametrize("quant", [None, (6, 2)])
@pytest.mark.parametrize("spec", [SANITY_SPECS[1], SANITY_SPECS[3]], ids=["class1", "class2"])
def test_check_node_inputs_are_normalized(monkeypatch, spec, quant):
    # the check node does not re-normalize its outputs; that is exact only
    # because every input message it is given has minimum 0
    import nbqc.decode as module

    check_node, calls = module.check_node_min_max, []

    def checked(x, ws, out):
        assert (x.min(axis=0) == 0).all()
        out = check_node(x, ws, out)
        assert (out.min(axis=0) == 0).all()
        calls.append(x.shape)
        return out

    monkeypatch.setattr(module, "check_node_min_max", checked)
    h, _, _, fld = build_code(spec)
    schedule = build_layer_schedule(h, LAYER_I)
    config = DecoderConfig(max_iter=4, quant=quant, rng_seed=3)
    rng = [np.random.default_rng(s) for s in range(3)]
    channel = channel_reliability(np.zeros(h.cols, dtype=int), [0.9] * 3, fld, rng)
    decode(h, schedule, channel, fld, config)
    decode(h, schedule, channel[0], fld, config)
    run_monte_carlo(h, schedule, fld, [0.0, 2.0], 6, config)
    assert calls


def test_decode_validates_channel_length():
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    with pytest.raises(ValueError):
        decode(h, schedule, [np.zeros(4)] * 3, fld, DecoderConfig())
    for shape in ((0, h.cols, fld.q), (2, 1, h.cols, fld.q)):
        with pytest.raises(ValueError, match="channel messages"):
            decode(h, schedule, np.zeros(shape), fld, DecoderConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_refuses_non_finite_channel(bad):
    # a NaN would "decode" to the all-zero word, and inf - inf is NaN
    h, _, _, fld = build_code(CodeSpec.class2(3, 1, gamma=3, rho=6))
    schedule = build_layer_schedule(h, LAYER_I)
    good = hard_channel(np.zeros(h.cols, dtype=int), fld)
    one_entry, one_column, stack = good.copy(), good.copy(), np.stack([good, good])
    one_entry[5, 2] = one_column[7] = stack[1, 0, 3] = bad
    for channel in (np.full_like(good, bad), one_entry, one_column, stack):
        with pytest.raises(ValueError, match=r"finite entries, got .* with [1-9]\d* not finite"):
            decode(h, schedule, channel, fld, DecoderConfig())


def test_hard_decision_tie_break():
    assert list(hard_decision([np.array([1.0, 0.0, 0.0, 2.0])])) == [1]


def test_syndrome_zero():
    h, fld = fig_code_class2()
    assert syndrome_zero(h.layers, fld, np.zeros(h.cols, dtype=int))
    bad = np.zeros(h.cols, dtype=int)
    bad[0] = 1
    assert not syndrome_zero(h.layers, fld, bad)


def test_syndrome_zero_rows_of_unequal_degree():
    # block row 1 has a zero block, so its rows have one edge fewer
    fld = GF2m(2)
    h = ParityCheck(fld, np.array([[1, 1, 1], [1, 1, 0]]))
    assert [labels.shape for _, labels in h.layers] == [(3, 3), (3, 2)]
    # row r of both block rows checks x_r + x_(3+r), block row 0's also x_(6+r)
    x = np.array([1, 2, 3, 1, 2, 3, 0, 0, 0])
    assert syndrome_zero(h.layers, fld, x)
    x[3] = 2
    assert not syndrome_zero(h.layers, fld, x)


def test_run_monte_carlo_deterministic():
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    config = DecoderConfig(max_iter=5, rng_seed=7)
    a = run_monte_carlo(h, schedule, fld, [2.0], 30, config)
    b = run_monte_carlo(h, schedule, fld, [2.0], 30, config)
    assert a == b
    assert a[0].trials == 30
    assert 0.0 <= a[0].fer <= 1.0
    with pytest.raises(ValueError):
        run_monte_carlo(h, schedule, fld, [], 10, config)
    with pytest.raises(ValueError):
        run_monte_carlo(h, schedule, fld, [2.0], 0, config)


@pytest.mark.parametrize(
    "snrs, workers, match",
    [
        ([float("nan")], 1, "finite"),
        ([1.0, float("inf")], 1, "finite"),
        ([float("-inf")], 1, "finite"),
        ([-1e4], 1, "finite"),
        ([1.0], 0, "worker"),
        ([4000.0], 1, "finite"),  # 10**400 overflows a float
        ([2.0, 3080.0], 1, "SNR 3080.0 dB"),  # sigma 1e-154: 2/sigma^2 overflows
        ([-3200.0], 1, "SNR -3200.0 dB"),  # sigma 1e160: sigma^2 overflows
    ],
)
def test_run_monte_carlo_rejects_bad_input(snrs, workers, match):
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    with pytest.raises(ValueError, match=match):
        run_monte_carlo(h, schedule, fld, snrs, 5, DecoderConfig(), workers=workers)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "snr, quant, refused",
    [
        (3075.0, None, True),  # the sum of 3 |LLR|s overflows, though 2/sigma^2 does not
        (3069.0, None, False),
        (3070.0, (6, 2), True),  # 2^2 times that sum overflows
        (3068.0, (6, 2), False),
    ],
)
def test_run_monte_carlo_refuses_reliabilities_that_overflow(snr, quant, refused):
    h, _, _, fld = build_code(CodeSpec.class2(3, 1, gamma=3, rho=6))
    config = DecoderConfig(max_iter=5, quant=quant)
    args = (h, build_layer_schedule(h), fld, [2.0, snr], 3, config)
    if refused:
        with pytest.raises(ValueError, match=f"SNR {snr} dB .* finite"):
            run_monte_carlo(*args)
    else:
        assert run_monte_carlo(*args)[1].fer == 0.0


def test_run_monte_carlo_rejects_nonpositive_rate():
    h, _, _, fld = build_code(CodeSpec.class1(2, 1, 3, gamma=3, rho=3))  # 9 x 9
    schedule = build_layer_schedule(h, LAYER_I)
    message = r"^H is 9x9, so its design rate 0 is not positive$"
    with pytest.raises(ValueError, match=message):
        run_monte_carlo(h, schedule, fld, [1.0], 5, DecoderConfig())


def test_run_monte_carlo_pool_on_a_code_fresh_from_its_file(tmp_path):
    # the H handed to the pool is not expanded yet; its workers decode on
    # the schedule's arrays
    spec = CodeSpec.class2(3, 1, gamma=3, rho=6)
    h, _, _, fld = build_code(spec)
    path = tmp_path / "q8.nbqc"
    write_code(path, spec, h, fld)
    schedule = build_layer_schedule(h)
    config = DecoderConfig(max_iter=5, rng_seed=4)
    rows = []
    for workers in (1, 2):
        _, fresh, fld = read_code(path)
        assert "layers" not in vars(fresh)
        rows.append(run_monte_carlo(fresh, schedule, fld, [1.0, 3.0], 8, config, workers=workers))
    assert rows[0] == rows[1]


def test_run_monte_carlo_pool_by_spawn(monkeypatch):
    # spawn, the default start method on macOS and Windows, hands the pool
    # H and the field by pickle
    import multiprocessing

    h, _, _, fld = build_code(CodeSpec.class2(3, 1, gamma=3, rho=6))
    schedule = build_layer_schedule(h)
    config = DecoderConfig(max_iter=5, rng_seed=4)
    one = run_monte_carlo(h, schedule, fld, [1.0, 3.0], 8, config)
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
    assert run_monte_carlo(h, schedule, fld, [1.0, 3.0], 8, config, workers=2) == one


@pytest.mark.parametrize(
    "spec",
    [CodeSpec.class2(3, 1, gamma=3, rho=6), CodeSpec.class1(6, 7, 9, gamma=10, rho=20)],
    ids=["q8", "q64"],
)
def test_pool_worker_decodes_without_expanding_h(spec):
    # a pool worker gets (h, schedule, fld, config) by pickle, as H's region
    # and the schedule's layer arrays; it decodes, early stop included, on
    # the schedule alone, so its copy of H is never expanded a second time
    h, _, _, fld = build_code(spec)
    code = (h, build_layer_schedule(h), fld, DecoderConfig(max_iter=1))
    copy = pickle.loads(pickle.dumps(code))
    _decode_frames([(snr_to_sigma(2.0, 0.5), (0, 0))], copy)
    assert "layers" not in vars(copy[0])


def test_run_monte_carlo_worker_count_reproducible():
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    config = DecoderConfig(max_iter=5, rng_seed=11)
    one = run_monte_carlo(h, schedule, fld, [1.0, 3.0], 12, config, workers=1)
    two = run_monte_carlo(h, schedule, fld, [1.0, 3.0], 12, config, workers=2)
    assert one == two
    # 14 frames do not divide evenly among 3 workers
    one = run_monte_carlo(h, schedule, fld, [1.0, 3.0], 7, config, workers=1)
    three = run_monte_carlo(h, schedule, fld, [1.0, 3.0], 7, config, workers=3)
    assert one == three
    # more workers than frames
    one = run_monte_carlo(h, schedule, fld, [1.0], 2, config, workers=1)
    assert run_monte_carlo(h, schedule, fld, [1.0], 2, config, workers=3) == one


def test_run_monte_carlo_starts_no_more_processes_than_batches(monkeypatch):
    # a stand-in pool records its process count and decodes its batches in
    # this process, so the test starts no process at any worker count
    import multiprocessing

    import nbqc.decode as module

    started = []

    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, batches):
            return [func(b) for b in batches]

    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h)
    config = DecoderConfig(max_iter=5, rng_seed=3)
    monkeypatch.setattr(module, "_worker_code", module._worker_code)  # restored after the test
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    # (SNRs, trials, workers, pools started): one frame decodes in this
    # process; fewer frames than workers; fewer workers than frames
    for snrs, trials, workers, pools in (([1.0], 1, 64, []), ([1.0], 2, 64, [2]), ([1.0, 3.0], 5, 3, [3])):
        one = run_monte_carlo(h, schedule, fld, snrs, trials, config)
        assert run_monte_carlo(h, schedule, fld, snrs, trials, config, workers=workers) == one
        assert started == pools
        started.clear()


def test_run_monte_carlo_batch_size_does_not_change_rows(monkeypatch):
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    config = DecoderConfig(max_iter=5, quant=(4, 1), rng_seed=13)
    whole = run_monte_carlo(h, schedule, fld, [0.0, 1.0, 3.0], 9, config)
    import nbqc.decode as module
    # a batch of 8 * q * (nnz + cols) bytes holds one frame
    monkeypatch.setattr(module, "BATCH_BYTES", 8 * fld.q * (h.nnz() + h.cols))
    assert run_monte_carlo(h, schedule, fld, [0.0, 1.0, 3.0], 9, config) == whole
    monkeypatch.setattr(module, "BATCH_BYTES", 4 * 8 * fld.q * (h.nnz() + h.cols))
    assert run_monte_carlo(h, schedule, fld, [0.0, 1.0, 3.0], 9, config) == whole


def test_sim_result_csv_round_trip():
    h, fld = fig_code_class2()
    schedule = build_layer_schedule(h, LAYER_I)
    row = run_monte_carlo(h, schedule, fld, [3.0], 10, DecoderConfig(rng_seed=1))[0]
    parts = row.csv().split(",")
    assert float(parts[0]) == 3.0
    assert int(parts[1]) == 10
    assert float(parts[4]) == row.fer
