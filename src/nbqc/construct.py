"""Construction of Class-I and Class-II non-binary QC-LDPC parity checks.

Class-I codes come from the multiplicative subgroups of GF(q) obtained by
factoring q-1 = c*n with gcd(c, n) = 1.  Class-II codes come from the two
complementary additive subgroups spanned by {alpha^0..alpha^(t-1)} and
{alpha^t..alpha^(m-1)}.  Both yield a dense (c*n) x (c*n) base matrix W of
field elements; each entry is expanded into a (q-1) x (q-1) circulant
permutation matrix (CPM) and the top-left gamma x rho block sub-array is
the sparse parity-check matrix H.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gf import GF2m, DEFAULT_PRIMITIVE_POLY

CLASS_I = 1
CLASS_II = 2


@dataclass(frozen=True)
class CodeSpec:
    """Construction parameters for one code.

    For Class-I, q-1 = c*n with gcd(c, n) = 1 and t is unused (None).
    For Class-II, c = 2^(m-t) and n = 2^t are derived from (m, t).
    gamma/rho are the truncation block counts, 1 <= gamma, rho <= c*n.
    """

    code_class: int
    m: int
    c: int
    n: int
    gamma: int
    rho: int
    t: int | None = None
    primitive_poly: int | None = None
    surjective_seed: int | None = None

    @property
    def q(self) -> int:
        return 1 << self.m

    @property
    def dim(self) -> int:
        return self.c * self.n

    def validate(self) -> None:
        if self.code_class not in (CLASS_I, CLASS_II):
            raise ValueError(f"unknown code class {self.code_class}")
        if self.code_class == CLASS_I:
            if self.c * self.n != self.q - 1:
                raise ValueError(
                    f"Class-I factorization violated: c*n = {self.c * self.n} != q-1 = {self.q - 1}"
                )
            if math.gcd(self.c, self.n) != 1:
                raise ValueError(
                    f"Class-I factorization violated: gcd(c, n) must be 1, got gcd({self.c}, {self.n})"
                )
        else:
            if self.t is None or not 1 <= self.t < self.m:
                raise ValueError(f"Class-II split exponent t={self.t} out of range [1, m)")
            if self.c != 1 << (self.m - self.t) or self.n != 1 << self.t:
                raise ValueError("Class-II requires c = 2^(m-t) and n = 2^t")
        if not 1 <= self.gamma <= self.dim:
            raise ValueError(f"gamma={self.gamma} out of range [1, {self.dim}]")
        if not 1 <= self.rho <= self.dim:
            raise ValueError(f"rho={self.rho} out of range [1, {self.dim}]")

    @staticmethod
    def class1(m: int, c: int, n: int, gamma: int, rho: int, **kw) -> "CodeSpec":
        spec = CodeSpec(CLASS_I, m, c, n, gamma, rho, **kw)
        spec.validate()
        return spec

    @staticmethod
    def class2(m: int, t: int, gamma: int, rho: int, **kw) -> "CodeSpec":
        spec = CodeSpec(CLASS_II, m, 1 << (m - t), 1 << t, gamma, rho, t=t, **kw)
        spec.validate()
        return spec


@dataclass(frozen=True)
class SubgroupIndexing:
    """Ordered subgroup element lists beta_0..beta_(n-1) and delta_0..delta_(c-1)."""

    beta: tuple[int, ...]
    delta: tuple[int, ...]


@dataclass(frozen=True)
class BaseMatrix:
    """The dense (c*n) x (c*n) base matrix W of field elements."""

    dim: int
    entries: np.ndarray  # shape (dim, dim), dtype int

    def block(self, i: int, j: int, n: int) -> np.ndarray:
        return self.entries[i * n : (i + 1) * n, j * n : (j + 1) * n]


@dataclass
class ParityCheck:
    """Sparse CPM-expanded parity-check matrix.

    row_entries[r] is the column-sorted list of (column, value) pairs of
    row r; block_origin[r] = (block row, CPM row offset).
    """

    rows: int
    cols: int
    q: int
    row_entries: list[list[tuple[int, int]]]
    block_origin: list[tuple[int, int]] = field(repr=False, default_factory=list)

    @property
    def num_block_rows(self) -> int:
        return self.rows // (self.q - 1)

    @property
    def num_block_cols(self) -> int:
        return self.cols // (self.q - 1)

    def nnz(self) -> int:
        return sum(len(r) for r in self.row_entries)

    @cached_property
    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense edge form (cols, labels, degree): row r's entries fill the
        first degree[r] slots of (rows, max degree) arrays; the other slots
        hold column 0 with label 0, which adds nothing to a syndrome."""
        degree = np.array([len(e) for e in self.row_entries], dtype=np.intp)
        slots = np.arange(degree.max(initial=0)) < degree[:, None]
        cols = np.zeros(slots.shape, dtype=np.intp)
        labels = np.zeros(slots.shape, dtype=np.intp)
        edges = np.array([e for entries in self.row_entries for e in entries], dtype=np.intp)
        cols[slots], labels[slots] = edges.reshape(-1, 2).T
        return cols, labels, degree

    def column_entries(self) -> list[list[tuple[int, int]]]:
        """Column-major view: per column, sorted list of (row, value)."""
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for r, entries in enumerate(self.row_entries):
            for c, v in entries:
                cols[c].append((r, v))
        return cols


def location_vector(fld: GF2m, d: int) -> list[tuple[int, int]]:
    """Sparse (q-1)-vector for element d: value alpha^i at position i = log d.

    The zero element maps to the all-zero tuple (empty sparse list).
    """
    fld.check_element(d)
    if d == 0:
        return []
    return [(fld.log(d), d)]


def cpm(fld: GF2m, d: int) -> list[tuple[int, int, int]]:
    """Sparse (q-1) x (q-1) circulant permutation matrix of d.

    Row r is the location vector of alpha^r * d; the zero element gives the
    zero matrix.  Returned as (row, col, value) triples.
    """
    fld.check_element(d)
    if d == 0:
        return []
    base = fld.log(d)
    qm1 = fld.q - 1
    return [(r, (base + r) % qm1, fld.antilog_table[(base + r) % qm1]) for r in range(qm1)]


def index_subgroup(fld: GF2m, basis_powers: list[int]) -> tuple[int, ...]:
    """Order the additive span of {alpha^p : p in basis_powers}.

    Index 0 is the zero element; nonzero elements are sorted first by the
    number of alpha-power terms, then lexicographically by their ascending
    exponent lists.  This ordering makes complementary index pairs sum to
    the last element: beta_i + beta_(N-1-i) = beta_(N-1).
    """
    if len(set(basis_powers)) != len(basis_powers):
        raise ValueError(f"basis powers must be distinct, got {basis_powers}")
    for p in basis_powers:
        if not 0 <= p < fld.m:
            raise ValueError(f"basis power {p} out of range [0, {fld.m})")
    subsets = []
    for r in range(1, len(basis_powers) + 1):
        subsets.extend(itertools.combinations(sorted(basis_powers), r))
    subsets.sort(key=lambda s: (len(s), s))
    out = [0]
    for s in subsets:
        elt = 0
        for p in s:
            elt ^= fld.pow_alpha(p)
        out.append(elt)
    return tuple(out)


def random_index_subgroup(fld: GF2m, basis_powers: list[int], seed: int) -> tuple[int, ...]:
    """Seeded uniform-random ordering of the span; zero stays first.

    Benchmark ordering that generally breaks the palindromic-sum symmetry.
    """
    ordered = list(index_subgroup(fld, basis_powers))
    rest = ordered[1:]
    random.Random(seed).shuffle(rest)
    return tuple([0] + rest)


def build_base_class1(fld: GF2m, c: int, n: int) -> tuple[BaseMatrix, SubgroupIndexing]:
    """Base matrix with entry (i,j)(k,l) = delta^(j-i) * beta^k + beta^l."""
    q = fld.q
    if c * n != q - 1:
        raise ValueError(f"need c*n = q-1, got {c}*{n} != {q - 1}")
    if math.gcd(c, n) != 1:
        raise ValueError(f"need gcd(c, n) = 1, got gcd({c}, {n})")
    beta = [fld.pow_alpha(c * k) for k in range(n)]
    delta = [fld.pow_alpha(n * j) for j in range(c)]
    dim = c * n
    w = np.zeros((dim, dim), dtype=np.int64)
    for i in range(c):
        for j in range(c):
            dpow = fld.pow_alpha(n * ((j - i) % (q - 1)))
            for k in range(n):
                lead = fld.mul(dpow, beta[k])
                for l in range(n):
                    w[i * n + k, j * n + l] = lead ^ beta[l]
    return BaseMatrix(dim, w), SubgroupIndexing(tuple(beta), tuple(delta))


def build_base_class2(
    fld: GF2m,
    t: int,
    beta: tuple[int, ...] | None = None,
    delta: tuple[int, ...] | None = None,
) -> tuple[BaseMatrix, SubgroupIndexing]:
    """Base matrix with entry (i,j)(k,l) = (delta_i + delta_j) + (beta_k + beta_l).

    beta/delta default to the symmetry-inducing subgroup orderings; pass
    explicit orderings (e.g. from random_index_subgroup) to override.
    """
    m = fld.m
    if not 1 <= t < m:
        raise ValueError(f"split exponent t={t} out of range [1, {m})")
    if beta is None:
        beta = index_subgroup(fld, list(range(t)))
    if delta is None:
        delta = index_subgroup(fld, list(range(t, m)))
    n = 1 << t
    c = 1 << (m - t)
    dim = c * n
    w = np.zeros((dim, dim), dtype=np.int64)
    for i in range(c):
        for j in range(c):
            dpart = delta[i] ^ delta[j]
            for k in range(n):
                for l in range(n):
                    w[i * n + k, j * n + l] = dpart ^ beta[k] ^ beta[l]
    return BaseMatrix(dim, w), SubgroupIndexing(tuple(beta), tuple(delta))


def build_base(spec: CodeSpec, fld: GF2m | None = None) -> tuple[BaseMatrix, SubgroupIndexing, GF2m]:
    spec.validate()
    if fld is None:
        fld = GF2m(spec.m, spec.primitive_poly)
    if spec.code_class == CLASS_I:
        w, indexing = build_base_class1(fld, spec.c, spec.n)
    else:
        if spec.surjective_seed is not None:
            beta = random_index_subgroup(fld, list(range(spec.t)), spec.surjective_seed)
            delta = random_index_subgroup(fld, list(range(spec.t, spec.m)), spec.surjective_seed + 1)
            w, indexing = build_base_class2(fld, spec.t, beta, delta)
        else:
            w, indexing = build_base_class2(fld, spec.t)
    return w, indexing, fld


def expand_base(fld: GF2m, w: BaseMatrix, gamma: int, rho: int) -> ParityCheck:
    """CPM-expand the top-left gamma x rho block sub-array of W."""
    qm1 = fld.q - 1
    rows = gamma * qm1
    row_entries: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    block_origin = [(r // qm1, r % qm1) for r in range(rows)]
    for bi in range(gamma):
        for bj in range(rho):
            for r, c, v in cpm(fld, int(w.entries[bi, bj])):
                row_entries[bi * qm1 + r].append((bj * qm1 + c, v))
    for entries in row_entries:
        entries.sort()
    return ParityCheck(rows, rho * qm1, fld.q, row_entries, block_origin)


def build_code(spec: CodeSpec) -> tuple[ParityCheck, BaseMatrix, SubgroupIndexing, GF2m]:
    """Full construction: base matrix, truncation and CPM expansion."""
    w, indexing, fld = build_base(spec)
    h = expand_base(fld, w, spec.gamma, spec.rho)
    return h, w, indexing, fld


def recover_base_region(h: ParityCheck, fld: GF2m) -> np.ndarray:
    """Reconstruct the truncated base-matrix region from a sparse H.

    Each stored CPM block is checked for internal consistency against the
    expansion of its recovered value.
    """
    qm1 = fld.q - 1
    gamma = h.num_block_rows
    rho = h.num_block_cols
    blocks: list[list[dict[tuple[int, int], int]]] = [
        [dict() for _ in range(rho)] for _ in range(gamma)
    ]
    for r, entries in enumerate(h.row_entries):
        bi, off = r // qm1, r % qm1
        for c, v in entries:
            blocks[bi][c // qm1][(off, c % qm1)] = v
    w = np.zeros((gamma, rho), dtype=np.int64)
    for bi in range(gamma):
        for bj in range(rho):
            blk = blocks[bi][bj]
            if not blk:
                continue
            row0 = [(c, v) for (r, c), v in blk.items() if r == 0]
            if len(row0) != 1:
                raise ValueError(f"block ({bi},{bj}): CPM row 0 is not a location vector")
            d = row0[0][1]
            expected = {(r, c): v for r, c, v in cpm(fld, d)}
            if expected != blk:
                raise ValueError(f"block ({bi},{bj}) is not the CPM of {d}")
            w[bi, bj] = d
    return w
