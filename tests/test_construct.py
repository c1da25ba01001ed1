"""Base-matrix construction, CPM expansion and subgroup orderings."""

import dataclasses
import hashlib
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbqc.codefile import format_code, parse_code
from nbqc.construct import (
    CLASS_I,
    CLASS_II,
    CodeSpec,
    ParityCheck,
    build_base,
    build_base_class1,
    build_base_class2,
    build_code,
    cpm,
    index_subgroup,
    random_index_subgroup,
)
from nbqc.decode import build_layer_schedule, syndrome_zero
from nbqc.gf import GF2m
from oracles import gf_rank, same_layers

CLASS1_SUITE = [(2, 1, 3), (3, 7, 1), (4, 3, 5), (6, 7, 9)]
CLASS2_SUITE = [(2, 1), (3, 1), (4, 2), (5, 2)]


def test_cpm_gf4():
    fld = GF2m(2)
    # d = alpha: row r has alpha^(1+r) at column (1+r) mod 3
    cols, values = cpm(fld, 2)
    assert (cols.tolist(), values.tolist()) == ([1, 2, 0], [2, 3, 1])
    assert cpm(fld, 0)[1].tolist() == [0, 0, 0]
    cols, values = cpm(fld, np.array([[2, 0]]))
    assert (cols.shape, values.tolist()) == ((1, 2, 3), [[[2, 3, 1], [0, 0, 0]]])
    with pytest.raises(ValueError, match="not an element"):
        cpm(fld, np.array([1, 4]))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cpm_is_permutation_matrix(m):
    fld = GF2m(m)
    qm1 = fld.q - 1
    for d in range(1, fld.q):
        cols, values = cpm(fld, d)
        assert sorted(cols.tolist()) == list(range(qm1))
        for r, (c, v) in enumerate(zip(cols.tolist(), values.tolist())):
            assert v == fld.mul_table[fld.pow_alpha(r), d]
            assert c == fld.log_table[v]


def test_index_subgroup_gf4_full():
    fld = GF2m(2)
    assert index_subgroup(fld, [0, 1]) == (0, 1, 2, 3)
    assert index_subgroup(fld, [0]) == (0, 1)
    assert index_subgroup(fld, [1]) == (0, 2)


def test_index_subgroup_count_then_lex():
    fld = GF2m(4)
    # singles by ascending exponent, then pairs, then the triple
    got = index_subgroup(fld, [0, 1, 2])
    assert got[0] == 0
    assert got[1:4] == (1, 2, 4)  # alpha^0, alpha^1, alpha^2
    assert got[4:7] == (1 ^ 2, 1 ^ 4, 2 ^ 4)
    assert got[7] == 1 ^ 2 ^ 4


@pytest.mark.parametrize("m,t", CLASS2_SUITE)
def test_index_subgroup_palindrome(m, t):
    fld = GF2m(m)
    for basis in (list(range(t)), list(range(t, m))):
        seq = index_subgroup(fld, basis)
        top = seq[-1]
        assert all(seq[i] ^ seq[len(seq) - 1 - i] == top for i in range(len(seq)))


def test_index_subgroup_rejects_bad_basis():
    fld = GF2m(3)
    with pytest.raises(ValueError):
        index_subgroup(fld, [0, 0])
    with pytest.raises(ValueError):
        index_subgroup(fld, [3])


def test_random_index_subgroup_deterministic():
    fld = GF2m(4)
    a = random_index_subgroup(fld, [0, 1, 2], seed=42)
    b = random_index_subgroup(fld, [0, 1, 2], seed=42)
    assert a == b
    assert a[0] == 0
    assert sorted(a) == sorted(index_subgroup(fld, [0, 1, 2]))


def test_random_index_subgroup_frozen_seed0_breaks_palindrome():
    fld = GF2m(4)
    got = random_index_subgroup(fld, [0, 1, 2], seed=0)
    assert got == (0, 5, 4, 2, 1, 6, 3, 7)
    top = got[-1]
    assert any(got[i] ^ got[7 - i] != top for i in range(8))


def test_four_element_span_orderings_always_palindromic():
    # The three nonzero elements of a 4-element additive subgroup XOR to
    # zero, so every zero-first ordering keeps the palindromic sums; only
    # spans of 8 or more elements can break the symmetry.
    fld = GF2m(2)
    base = index_subgroup(fld, [0, 1])
    for rest in itertools.permutations(base[1:]):
        seq = (0,) + rest
        top = seq[-1]
        assert all(seq[i] ^ seq[3 - i] == top for i in range(4))


def test_class1_base_gf4():
    fld = GF2m(2)
    w, indexing = build_base_class1(fld, 1, 3)
    expected = np.array([[0, 3, 2], [3, 0, 1], [2, 1, 0]])
    assert np.array_equal(w, expected)
    assert indexing.beta == (1, 2, 3)
    assert indexing.delta == (1,)


def test_class2_base_gf4():
    fld = GF2m(2)
    w, indexing = build_base_class2(fld, 1)
    b = np.array([[0, 1], [1, 0]])
    c = b ^ 2
    expected = np.block([[b, c], [c, b]])
    assert np.array_equal(w, expected)
    assert indexing.beta == (0, 1)
    assert indexing.delta == (0, 2)


def entry_loop(c, n, entry):
    """Reference: the base matrix entry by entry, row (i, k), column (j, l)."""
    blocks = list(itertools.product(range(c), range(n)))
    return np.array([[entry(i, j, k, l) for j, l in blocks] for i, k in blocks])


@pytest.mark.parametrize("m,c,n", CLASS1_SUITE)
def test_class1_base_matches_entry_loop(m, c, n):
    fld = GF2m(m)
    w, _ = build_base_class1(fld, c, n)
    a = fld.pow_alpha
    want = entry_loop(c, n, lambda i, j, k, l: fld.mul_table[a(n * (j - i)), a(c * k)] ^ a(c * l))
    assert w.dtype == np.int64 and np.array_equal(w, want)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("m,t", CLASS2_SUITE)
def test_class2_base_matches_entry_loop(m, t, seed):
    w, ind, _ = build_base(CodeSpec.class2(m, t, gamma=1, rho=1, surjective_seed=seed))
    b, d = ind.beta, ind.delta
    want = entry_loop(1 << (m - t), 1 << t, lambda i, j, k, l: d[i] ^ d[j] ^ b[k] ^ b[l])
    assert w.dtype == np.int64 and np.array_equal(w, want)


@pytest.mark.parametrize("m,c,n", CLASS1_SUITE)
def test_class1_zeros_exactly_on_diagonal(m, c, n):
    fld = GF2m(m)
    w, _ = build_base_class1(fld, c, n)
    zeros = np.argwhere(w == 0)
    assert np.array_equal(zeros, np.array([[i, i] for i in range(len(w))]))


@pytest.mark.parametrize("m,t", CLASS2_SUITE)
def test_class2_zeros_exactly_on_diagonal(m, t):
    fld = GF2m(m)
    w, _ = build_base_class2(fld, t)
    zeros = np.argwhere(w == 0)
    assert np.array_equal(zeros, np.array([[i, i] for i in range(len(w))]))


def test_expand_base_shapes_and_nnz():
    spec = CodeSpec.class1(2, 1, 3, gamma=2, rho=3)
    h, w, _, fld = build_code(spec)
    assert (h.rows, h.cols) == (6, 9)
    assert h.num_block_rows == 2 and h.region.shape == (2, 3)
    # two zero blocks in the truncated 2x3 region
    assert h.nnz() == (fld.q - 1) * 4
    for cols, _ in h.layers:
        assert (np.diff(cols, axis=1) > 0).all()
    with pytest.raises(ValueError):
        h.layers[0][1][0, 0] = 1  # read-only: no second copy of H can drift


# sha256 of every row's (column, label) pairs, recorded from the padded
# edge arrays, so that a new expanded form of H cannot move an edge
ROW_SPECS = {
    # the `nbqc construct` codes of perfbench/workloads.py
    "q8-c2": CodeSpec.class2(3, 1, gamma=3, rho=8),
    "q8-c1": CodeSpec.class1(3, 1, 7, gamma=3, rho=7),
    "q64-c1": CodeSpec.class1(6, 7, 9, gamma=10, rho=20),
    "q32-c2": CodeSpec.class2(5, 4, gamma=16, rho=32),
    "m8-c2": CodeSpec.class2(8, 4, gamma=16, rho=256),
    "m8-c1": CodeSpec.class1(8, 15, 17, gamma=8, rho=255),
    # the acceptance suite's SANITY_SPECS; c2-m3 is also the sim-q8 code
    "c1-m2": CodeSpec.class1(2, 1, 3, gamma=2, rho=3),
    "c1-m4": CodeSpec.class1(4, 3, 5, gamma=3, rho=6),
    "c2-m2": CodeSpec.class2(2, 1, gamma=2, rho=4),
    "c2-m3": CodeSpec.class2(3, 1, gamma=3, rho=6),
}
ROW_GOLDEN = {
    "q8-c2": "da0d7de0438eac97b68a7d377c39b2ecfbb8b8016aef2f6235799fab3ed0f569",
    "q8-c1": "34f0f5cfecc8889bab30595f8b86c4c700067f57dd9db0386e41676f6a36573a",
    "q64-c1": "378a0c985242b3855b77ffe21fcdffbb5f2b9e09faed2851f19caab9160654f4",
    "q32-c2": "3e990823962e62929a4227f5a78675730fa432fd5711d41c4ca064504e41a674",
    "m8-c2": "9f3b5694d8a4f61c27d0664d68267d37cd4deaf2fa8d9d19012cd3b8643e4e84",
    "m8-c1": "47e2a1aad10b0ad98dd3b248167d2558b2f2860c6c551f8629d0fa8abe006206",
    "c1-m2": "a3d46a3c56ae407d216fa01ba67a2db907d1249b86f986e35faad5544e33329a",
    "c1-m4": "4a9eb9bb7a3822f5377691732b69120f7f546aa985c94ccc2d25032d183fd317",
    "c2-m2": "813a2e0cdb1990a7d597cbdb1b6e381f2754f30e670b859472b497fab02d5e74",
    "c2-m3": "f189590bea9b9f7fde958f0fee83f66e294efdf0d887b2d8ac1451c59f1ea272",
}


@pytest.mark.parametrize("name", ROW_SPECS)
def test_row_entries_pinned(name):
    h = build_code(ROW_SPECS[name])[0]
    digest = hashlib.sha256()
    for r, entries in enumerate(h.row_entries):
        digest.update(np.column_stack((np.full(len(entries), r), entries)).astype(np.int64).tobytes())
    assert digest.hexdigest() == ROW_GOLDEN[name]


@st.composite
def constructible_specs(draw):
    """Any Class-I or Class-II spec with m <= 5, with an explicit polynomial
    so that it survives a trip through a code file."""
    m = draw(st.integers(2, 5))
    qm1 = (1 << m) - 1
    poly = {"primitive_poly": GF2m(m).primitive_poly}
    if draw(st.booleans()):
        c = draw(st.sampled_from([c for c in range(1, qm1 + 1) if qm1 % c == 0]))
        gamma, rho = draw(st.integers(1, qm1)), draw(st.integers(1, qm1))
        return CodeSpec.class1(m, c, qm1 // c, gamma, rho, **poly)
    gamma, rho = draw(st.integers(1, qm1 + 1)), draw(st.integers(1, qm1 + 1))
    return CodeSpec.class2(m, draw(st.integers(1, m - 1)), gamma, rho, **poly)


@pytest.mark.parametrize(
    "spec",
    [
        CodeSpec.class1(2, 1, 3, gamma=2, rho=3),
        CodeSpec.class2(3, 1, gamma=3, rho=6),
        CodeSpec.class2(2, 1, gamma=2, rho=4),
    ],
)
def test_recover_base_region_roundtrip(spec):
    # H keeps the truncated base-matrix region it was expanded from
    h, w, _, fld = build_code(spec)
    assert np.array_equal(h.region, w[: spec.gamma, : spec.rho])
    assert h.num_block_rows == spec.gamma
    with pytest.raises(ValueError):
        h.region[0, 0] = 0


@given(spec=constructible_specs())
@settings(max_examples=60, deadline=None)
def test_recover_base_region_and_code_file_roundtrip(spec):
    h, w, _, fld = build_code(spec)
    assert np.array_equal(h.region, w[: spec.gamma, : spec.rho])
    assert not h.region.flags.writeable
    text = format_code(spec, h, fld)
    spec2, h2, fld2 = parse_code(text)
    assert spec2 == spec
    assert np.array_equal(h2.region, h.region) and same_layers(h2, h)
    assert not h2.region.flags.writeable
    assert format_code(spec2, h2, fld2) == text


@given(spec=constructible_specs())
@settings(max_examples=60, deadline=None)
def test_region_derived_sizes_match_the_edge_form(spec):
    h, _, _, fld = build_code(spec)
    sizes = (h.rows, h.cols, h.nnz())  # read before H is expanded
    assert "layers" not in vars(h)
    rows, nnz = sum(len(c) for c, _ in h.layers), sum(c.size for c, _ in h.layers)
    assert sizes == (rows, h.region.shape[1] * (fld.q - 1), nnz)


@given(spec=constructible_specs())
@settings(max_examples=60, deadline=None)
def test_layers_are_the_schedule_and_the_rows(spec):
    h = build_code(spec)[0]
    rows = [np.column_stack(row) for cols, labels in h.layers for row in zip(cols, labels)]
    assert len(rows) == h.rows
    assert all(np.array_equal(a, b) for a, b in zip(rows, h.row_entries))
    if min(cols.shape[1] for cols, _ in h.layers) < 2:
        with pytest.raises(ValueError, match="check degree"):
            build_layer_schedule(h)
        return
    schedule = build_layer_schedule(h)
    assert len(schedule.cols) == len(schedule.labels) == len(h.layers)
    for t, (cols, labels) in enumerate(h.layers):
        assert schedule.cols[t] is cols and schedule.labels[t] is labels


def assert_read_only(h):
    fld = h.fld
    tables = (fld.antilog_table, fld.log_table, fld.mul_table, fld.inv_table)
    for a in (h.region, *tables, *(a for layer in h.layers for a in layer)):
        assert not a.flags.writeable


def test_parity_check_pickles_before_and_after_expansion():
    h, _, _, _ = build_code(CodeSpec.class2(3, 1, gamma=3, rho=6))
    lazy = pickle.loads(pickle.dumps(h))
    assert "layers" not in vars(lazy)
    h.layers  # the first read expands H
    expanded = pickle.loads(pickle.dumps(h))
    assert "layers" not in vars(expanded)  # a copy is rebuilt from the field and the region
    for copy in (lazy, expanded):
        assert np.array_equal(copy.region, h.region) and same_layers(copy, h)
        assert copy.fld.primitive_poly == h.fld.primitive_poly
        assert_read_only(copy)
    with pytest.raises(AttributeError, match="no attribute 'dense'"):
        lazy.dense
    # only the region and the field's m and polynomial are pickled
    q64, _, _, _ = build_code(CodeSpec.class1(6, 7, 9, gamma=10, rho=20))
    size = len(pickle.dumps(q64))
    q64.layers
    assert len(pickle.dumps(q64)) == size < 4096


def test_parity_check_is_built_only_from_a_region():
    fld = GF2m(2)
    h = ParityCheck(fld, np.array([[1, 2, 0]]))
    assert (h.rows, h.cols, h.q) == (3, 9, 4)
    for name in ("rows", "cols", "q"):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(h, fld=fld, **{name: getattr(h, name)})
    # a new region is a new H, expanded again
    assert dataclasses.replace(h, fld=fld, region=np.array([[0, 2, 0]])).nnz() == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.layers = h.layers
    # the region is copied: changing the caller's array leaves H as it was
    region = np.array([[1, 2, 0]])
    h = ParityCheck(fld, region)
    region[0, 2] = 3
    assert h.region.tolist() == [[1, 2, 0]] and h.nnz() == 6
    with pytest.raises(ValueError, match="2-D"):
        ParityCheck(fld, np.array([1, 2]))
    with pytest.raises(ValueError, match="not an element"):
        ParityCheck(fld, np.array([[1, 4]]))


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="c\\*n"):
        CodeSpec.class1(2, 2, 2, gamma=1, rho=1)
    with pytest.raises(ValueError, match="gcd"):
        CodeSpec.class1(6, 21, 3, gamma=1, rho=1)
    with pytest.raises(ValueError, match="t="):
        CodeSpec.class2(3, 0, gamma=1, rho=1)
    with pytest.raises(ValueError, match="t="):
        CodeSpec.class2(3, 3, gamma=1, rho=1)
    with pytest.raises(ValueError, match="gamma"):
        CodeSpec.class1(2, 1, 3, gamma=4, rho=3)
    with pytest.raises(ValueError, match="rho"):
        CodeSpec.class1(2, 1, 3, gamma=3, rho=0)
    with pytest.raises(ValueError, match="code class"):
        CodeSpec(3, 2, 1, 3, 1, 1)
    # c*n = q-1 holds; only GF(2^m) itself is out of reach
    with pytest.raises(ValueError, match=r"m=9 out of range \[2, 8\]"):
        CodeSpec.class1(9, 1, 511, 1, 1)
    with pytest.raises(ValueError, match=r"m=1 out of range \[2, 8\]"):
        CodeSpec.class1(1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="t=1 is Class-II only"):
        CodeSpec(1, 2, 1, 3, 1, 1, t=1)
    # build_base orders subgroups at random only for Class-II
    with pytest.raises(ValueError, match="surjective_seed.*Class-II only"):
        CodeSpec.class1(2, 1, 3, gamma=1, rho=1, surjective_seed=4)


def test_surjective_seed_randomizes_both_orderings():
    spec = CodeSpec.class2(4, 2, gamma=4, rho=4, surjective_seed=5)
    _, indexing, fld = build_base(spec)
    assert indexing.beta == random_index_subgroup(fld, [0, 1], 5)
    assert indexing.delta == random_index_subgroup(fld, [2, 3], 6)


@pytest.mark.parametrize(
    "spec, rank",
    [
        (CodeSpec.class2(3, 1, gamma=3, rho=6), 18),
        (CodeSpec.class1(3, 7, 1, gamma=3, rho=5), 18),
        (CodeSpec.class2(5, 4, gamma=16, rho=32), 226),  # the nominal (992, 496) code
        (CodeSpec.class1(6, 7, 9, gamma=10, rho=20), 428),  # the nominal (1260, 630) code
    ],
)
def test_gf_rank_of_unmasked_codes(spec, rank):
    # far from full rank: the true dimensions of the headline codes are
    # k = 992 - 226 = 766 and 1260 - 428 = 832, not 496 and 630
    h, _, _, fld = build_code(spec)
    assert gf_rank(h, fld) == rank < h.rows


def test_gf_rank_counts_the_null_space():
    # q^(cols - rank) of all q^cols words satisfy H
    h, _, _, fld = build_code(CodeSpec.class1(2, 1, 3, gamma=2, rho=3))
    words = np.array(list(itertools.product(range(fld.q), repeat=h.cols)))
    codewords = np.count_nonzero(syndrome_zero(h, fld, words))
    assert codewords == fld.q ** (h.cols - gf_rank(h, fld))
