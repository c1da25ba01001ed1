"""Structure checks: pass suites, region scoping and fault injection."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbqc.construct import (
    CodeSpec,
    build_base,
    build_base_class1,
    build_base_class2,
    build_code,
    cpm,
)
from nbqc import verify
from nbqc.gf import GF2m
from nbqc.verify import (
    check_class1_block_shift,
    check_class1_inner_shift,
    check_class2_symmetries,
    check_subgroup_symmetry,
    verify_class1,
    verify_class2,
)
from oracles import compare_full_grid

CLASS1_SUITE = [(2, 1, 3), (3, 7, 1), (4, 3, 5), (6, 7, 9)]
CLASS2_SUITE = [(2, 1), (3, 1), (4, 2), (5, 2)]


@pytest.mark.parametrize("m,c,n", CLASS1_SUITE)
def test_class1_full_base_passes(m, c, n):
    fld = GF2m(m)
    w, _ = build_base_class1(fld, c, n)
    report = verify_class1(fld, w, c, n)
    assert report.all_passed, report.render()
    assert {c.check_id for c in report.checks} == {"block_shift", "inner_shift"}


@pytest.mark.parametrize("m,t", CLASS2_SUITE)
def test_class2_full_base_passes(m, t):
    fld = GF2m(m)
    w, _ = build_base_class2(fld, t)
    report = verify_class2(fld, w, 1 << (m - t), 1 << t)
    assert report.all_passed, report.render()
    ids = {c.check_id for c in report.checks}
    assert {
        "block_sym_diag",
        "block_sym_antidiag",
        "entry_sym_diag",
        "entry_sym_antidiag",
        "beta_palindrome",
        "delta_palindrome",
    } == ids


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cpm_shift_all_elements(m):
    # row r+1 of every CPM is row r shifted right once, times alpha; the
    # zero element's CPM is all zero
    fld = GF2m(m)
    cols, values = cpm(fld, np.arange(fld.q))
    nonzero = values != 0
    assert (nonzero == (np.arange(fld.q) != 0)[:, None]).all()
    assert (np.roll(cols, -1, axis=-1) == (cols + 1) % (fld.q - 1))[nonzero].all()
    assert (np.roll(values, -1, axis=-1) == fld.mul_table[fld.pow_alpha(1), values]).all()


def test_truncated_region_checks_skip_wrap():
    spec = CodeSpec.class1(4, 3, 5, gamma=4, rho=7)
    h, w, _, fld = build_code(spec)
    report = verify_class1(fld, h.region, 3, 5)
    assert report.all_passed, report.render()
    assert "region" in report.checks[0].scope


def test_truncated_class2_region_passes():
    spec = CodeSpec.class2(3, 1, gamma=3, rho=5)
    h, w, _, fld = build_code(spec)
    report = verify_class2(fld, h.region, 4, 2)
    assert report.all_passed, report.render()
    # row 0 of a region narrower than W holds only part of the orderings
    assert not any("palindrome" in c.check_id for c in report.checks)


def test_class2_checks_leave_the_product_table_unbuilt():
    # a Class-II base matrix and its checks only XOR field elements, and
    # GF2m builds its 256 x 256 product table on first read
    h, _, _, fld = build_code(CodeSpec.class2(8, 4, gamma=2, rho=4))
    report = verify_class2(fld, h.region, 16, 16)
    assert report.all_passed, report.render()
    assert "mul_table" not in fld.__dict__


def test_class1_construction_and_checks_leave_the_product_table_unbuilt():
    # a Class-I entry and its beta-multiple are powers of alpha, read from
    # the log/antilog tables
    fld = GF2m(8)
    w, _ = build_base_class1(fld, 15, 17)
    assert "mul_table" not in fld.__dict__
    fld = GF2m(8)
    report = verify_class1(fld, w, 15, 17)
    assert report.all_passed, report.render()
    assert "mul_table" not in fld.__dict__


@pytest.mark.parametrize("m,c,n", CLASS1_SUITE)
def test_class1_single_entry_fault_detected(m, c, n):
    fld = GF2m(m)
    w, _ = build_base_class1(fld, c, n)
    rng = random.Random(m * 100 + c)
    for _ in range(10):
        ent = w.copy()
        r = rng.randrange(len(w))
        col = rng.randrange(len(w))
        ent[r, col] ^= rng.randrange(1, fld.q)
        report = verify_class1(fld, ent, c, n)
        assert not report.all_passed, (r, col)


@pytest.mark.parametrize("m,t", CLASS2_SUITE)
def test_class2_single_entry_fault_detected(m, t):
    fld = GF2m(m)
    w, _ = build_base_class2(fld, t)
    rng = random.Random(m * 10 + t)
    for _ in range(10):
        ent = w.copy()
        r = rng.randrange(len(w))
        col = rng.randrange(len(w))
        ent[r, col] ^= rng.randrange(1, fld.q)
        report = verify_class2(fld, ent, 1 << (m - t), 1 << t)
        assert not report.all_passed, (r, col)


def test_counterexample_reporting():
    fld = GF2m(2)
    w, _ = build_base_class1(fld, 1, 3)
    ent = w.copy()
    ent[1, 2] ^= 1
    res = check_class1_inner_shift(ent, 1, 3, fld, fld.pow_alpha(1))
    assert not res.passed
    assert res.counterexample is not None
    assert "FAIL" in str(res)


def test_subgroup_symmetry_good_and_bad():
    fld = GF2m(4)
    spec = CodeSpec.class2(4, 3, gamma=2, rho=2)
    _, indexing, _ = build_base(spec)
    assert all(r.passed for r in check_subgroup_symmetry(indexing.beta, indexing.delta))

    bad = CodeSpec.class2(4, 3, gamma=2, rho=2, surjective_seed=0)
    _, bad_indexing, _ = build_base(bad)
    results = {r.check_id: r for r in check_subgroup_symmetry(bad_indexing.beta, bad_indexing.delta)}
    assert not results["beta_palindrome"].passed


def test_randomized_ordering_breaks_entry_symmetry():
    # 8-element beta span with a shuffled ordering: the base matrix loses
    # its within-block anti-diagonal symmetry
    spec = CodeSpec.class2(4, 3, gamma=16, rho=16, surjective_seed=0)
    w, _, fld = build_base(spec)
    report = verify_class2(fld, w, spec.c, spec.n)
    failed = {c.check_id for c in report.checks if not c.passed}
    assert "entry_sym_antidiag" in failed
    assert "beta_palindrome" in failed


def test_block_shift_region_arguments():
    fld = GF2m(4)
    w, _ = build_base_class1(fld, 3, 5)
    res = check_class1_block_shift(w[:6, :10], 3, 5)
    assert res.passed
    assert "6x10" in res.scope


def test_class2_symmetry_check_ids():
    fld = GF2m(3)
    w, _ = build_base_class2(fld, 1)
    results = check_class2_symmetries(w, 4, 2)
    assert [r.check_id for r in results] == [
        "block_sym_diag",
        "block_sym_antidiag",
        "entry_sym_diag",
        "entry_sym_antidiag",
    ]
    assert all(r.passed for r in results)


# (class, mutated entry, region or None) -> (check_id, counterexample) of
# each base-matrix check, recorded from the nested-loop checks; XOR 3 is
# applied at the entry of the m=4 base matrix (Class-I c=3, n=5; Class-II
# c=n=4).  The region cases skip the wrapped comparisons.  The palindrome
# entries of the full Class-II cases were recorded by check_subgroup_symmetry
# on the orderings in the mutated W's row 0 (beta = row[:4], delta = row[::4]).
COUNTEREXAMPLES = {
    (1, (7, 11), None): [("block_shift", ((1, 2), (2, 1), 5, 6)), ("inner_shift", ((1, 2), (2, 1), 5, 4))],
    (1, (7, 11), (10, 13)): [("block_shift", ((1, 2), (2, 1), 5, 6)), ("inner_shift", ((1, 2), (2, 1), 5, 4))],
    (1, (0, 0), None): [("block_shift", ((0, 0), (0, 0), 3, 0)), ("inner_shift", ((0, 0), (0, 0), 3, 0))],
    (1, (0, 0), (10, 13)): [("block_shift", ((1, 1), (0, 0), 0, 3)), ("inner_shift", ((0, 0), (0, 0), 3, 0))],
    (1, (2, 13), None): [("block_shift", ((0, 2), (2, 3), 11, 8)), ("inner_shift", ((0, 2), (2, 3), 11, 1))],
    (1, (2, 13), (10, 13)): [("block_shift", None), ("inner_shift", None)],
    (1, (14, 1), None): [("block_shift", ((0, 1), (4, 1), 12, 15)), ("inner_shift", ((2, 0), (0, 2), 10, 15))],
    (1, (14, 1), (10, 13)): [("block_shift", None), ("inner_shift", None)],
    (2, (7, 11), None): [("block_sym_diag", ((1, 2), (3, 3))), ("block_sym_antidiag", None), ("entry_sym_diag", None), ("entry_sym_antidiag", ((1, 2), (0, 0))), ("beta_palindrome", None), ("delta_palindrome", None)],
    (2, (7, 11), (12, 14)): [("block_sym_diag", ((1, 2), (3, 3))), ("block_sym_antidiag", None), ("entry_sym_diag", None), ("entry_sym_antidiag", ((1, 2), (0, 0)))],
    (2, (0, 0), None): [("block_sym_diag", None), ("block_sym_antidiag", ((0, 0), (0, 0))), ("entry_sym_diag", None), ("entry_sym_antidiag", ((0, 0), (0, 0))), ("beta_palindrome", (0, 3, 3, 3)), ("delta_palindrome", (0, 3, 12, 12))],
    (2, (0, 0), (12, 14)): [("block_sym_diag", None), ("block_sym_antidiag", None), ("entry_sym_diag", None), ("entry_sym_antidiag", ((0, 0), (0, 0)))],
    (2, (2, 13), None): [("block_sym_diag", ((0, 3), (2, 1))), ("block_sym_antidiag", None), ("entry_sym_diag", ((0, 3), (1, 2))), ("entry_sym_antidiag", None), ("beta_palindrome", None), ("delta_palindrome", None)],
    (2, (2, 13), (12, 14)): [("block_sym_diag", None), ("block_sym_antidiag", None), ("entry_sym_diag", None), ("entry_sym_antidiag", None)],
    (2, (14, 1), None): [("block_sym_diag", ((0, 3), (2, 1))), ("block_sym_antidiag", None), ("entry_sym_diag", ((3, 0), (1, 2))), ("entry_sym_antidiag", None), ("beta_palindrome", None), ("delta_palindrome", None)],
    (2, (14, 1), (12, 14)): [("block_sym_diag", None), ("block_sym_antidiag", None), ("entry_sym_diag", None), ("entry_sym_antidiag", None)],
}


@pytest.mark.parametrize("case", list(COUNTEREXAMPLES), ids=str)
def test_counterexamples_pinned(case):
    code_class, pos, region = case
    fld = GF2m(4)
    if code_class == 1:
        (w, _), c, n, verify = build_base_class1(fld, 3, 5), 3, 5, verify_class1
    else:
        (w, _), c, n, verify = build_base_class2(fld, 2), 4, 4, verify_class2
    ent = w.copy()
    ent[pos] ^= 3
    if region:
        ent = ent[: region[0], : region[1]]
    report = verify(fld, ent, c, n)
    got = [(r.check_id, r.counterexample) for r in report.checks]
    assert repr(got) == repr(COUNTEREXAMPLES[case])  # plain ints, as FAIL lines print them


@st.composite
def damaged_bases(draw):
    """A base matrix W with m <= 5 of either class, up to 8 entries changed,
    cut to a random top-left region, with its verify function and (c, n)."""
    m = draw(st.integers(2, 5))
    fld, qm1 = GF2m(m), (1 << m) - 1
    if draw(st.booleans()):
        c = draw(st.sampled_from([c for c in range(1, qm1 + 1) if qm1 % c == 0 and np.gcd(c, qm1 // c) == 1]))
        (w, _), n, check = build_base_class1(fld, c, qm1 // c), qm1 // c, verify_class1
    else:
        t = draw(st.integers(1, m - 1))
        (w, _), c, n, check = build_base_class2(fld, t), 1 << (m - t), 1 << t, verify_class2
    w, dim = w.copy(), len(w)
    for r, col, v in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                             st.integers(1, qm1)), max_size=8)):
        w[r, col] ^= v
    rows, cols = draw(st.integers(1, dim)), draw(st.integers(1, dim))
    return fld, w[:rows, :cols], c, n, check


@given(damaged_bases())
@settings(max_examples=300, deadline=None)
def test_region_checks_match_the_full_grid(case):
    # every check result, counterexample and scope as the full c x c x n x n
    # grid finds them
    fld, w, c, n, check = case
    got = check(fld, w, c, n)
    with mock.patch.object(verify, "_compare", compare_full_grid):
        want = check(fld, w, c, n)
    assert repr(got.checks) == repr(want.checks)
