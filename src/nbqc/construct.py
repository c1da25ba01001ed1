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
            if self.surjective_seed is not None:
                raise ValueError("a random subgroup ordering (surjective_seed) is Class-II only")
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


@dataclass(frozen=True, eq=False)
class ParityCheck:
    """CPM-expanded parity-check matrix, stored only as padded edge arrays.

    Row r's edges fill the first degree[r] slots of the read-only
    (rows, max degree) arrays edge_cols (strictly increasing columns) and
    edge_labels (nonzero field elements); the other slots hold column 0
    with label 0, which adds nothing to a syndrome.  degree is derived
    from the labels.
    """

    rows: int
    cols: int
    q: int
    edge_cols: np.ndarray
    edge_labels: np.ndarray
    degree: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", np.count_nonzero(self.edge_labels, axis=1))
        for a in (self.edge_cols, self.edge_labels, self.degree):
            a.flags.writeable = False

    @property
    def num_block_rows(self) -> int:
        return self.rows // (self.q - 1)

    @property
    def num_block_cols(self) -> int:
        return self.cols // (self.q - 1)

    def nnz(self) -> int:
        return int(self.degree.sum())

    @property
    def row_entries(self) -> list[np.ndarray]:
        """Derived read-only view: per row, a (degree, 2) array of
        (column, value) pairs."""
        pairs = np.stack((self.edge_cols, self.edge_labels), axis=-1)
        pairs.flags.writeable = False
        return [p[:d] for p, d in zip(pairs, self.degree.tolist())]


def cpm(fld: GF2m, d) -> tuple[np.ndarray, np.ndarray]:
    """(q-1) x (q-1) circulant permutation matrix of element d, or of each
    element of an array d, as (columns, values) of shape d.shape + (q-1,).

    Row r is the location vector of alpha^r * d: value alpha^r * d at
    column log(alpha^r * d).  So row r+1 is row r shifted right once and
    times alpha.  The zero element gives the zero matrix: value 0 in every
    row (column -1).
    """
    d = np.asarray(d)
    bad = (d < 0) | (d >= fld.q)
    if bad.any():
        raise ValueError(f"{d[bad][0]} is not an element of GF({fld.q})")
    values = fld.mul_table[d[..., None], np.array(fld.antilog_table)]
    return np.array(fld.log_table)[values], values


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


def build_base_class1(fld: GF2m, c: int, n: int) -> tuple[np.ndarray, SubgroupIndexing]:
    """Base matrix with entry (i,j)(k,l) = delta^(j-i) * beta^k + beta^l."""
    q = fld.q
    if c * n != q - 1:
        raise ValueError(f"need c*n = q-1, got {c}*{n} != {q - 1}")
    if math.gcd(c, n) != 1:
        raise ValueError(f"need gcd(c, n) = 1, got gcd({c}, {n})")
    beta = np.array([fld.pow_alpha(c * k) for k in range(n)])
    delta = np.array([fld.pow_alpha(n * j) for j in range(c)])
    i, k, j, l = np.ix_(range(c), range(n), range(c), range(n))
    w = fld.mul_table[delta[(j - i) % c], beta[k]] ^ beta[l]  # delta has order c
    return w.reshape(c * n, c * n), SubgroupIndexing(tuple(beta.tolist()), tuple(delta.tolist()))


def build_base_class2(
    fld: GF2m,
    t: int,
    beta: tuple[int, ...] | None = None,
    delta: tuple[int, ...] | None = None,
) -> tuple[np.ndarray, SubgroupIndexing]:
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
    n, c = 1 << t, 1 << (m - t)
    b, d = np.array(beta), np.array(delta)
    i, k, j, l = np.ix_(range(c), range(n), range(c), range(n))
    w = d[i] ^ d[j] ^ b[k] ^ b[l]
    return w.reshape(c * n, c * n), SubgroupIndexing(tuple(beta), tuple(delta))


def build_base(spec: CodeSpec, fld: GF2m | None = None) -> tuple[np.ndarray, SubgroupIndexing, GF2m]:
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


def _expand_slots(fld: GF2m, bj: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays of the block rows whose slot s holds the CPM of d[:, s]
    in block column bj[:, s]; CPM row r of block row i is H row i*(q-1) + r."""
    qm1 = fld.q - 1
    cols, labels = cpm(fld, d)  # (block row, slot, CPM row)
    cols = np.where(labels != 0, cols + bj[..., None] * qm1, 0)
    shape = (d.shape[0] * qm1, d.shape[1])
    return cols.transpose(0, 2, 1).reshape(shape), labels.transpose(0, 2, 1).reshape(shape)


def expand_base(fld: GF2m, w: np.ndarray, gamma: int, rho: int) -> ParityCheck:
    """CPM-expand the top-left gamma x rho block region of W into H's edge
    arrays, with one broadcast over the region.

    A row's edges are the nonzero blocks of its block row in block-column
    order; block (bi, bj) puts row r's edge at column bj*(q-1) +
    log(alpha^r w) with label alpha^r w (see cpm).
    """
    region = w[:gamma, :rho]
    width = int(np.count_nonzero(region, axis=1).max(initial=0))
    # per block row, the block columns of its nonzero blocks first, in order
    bj = np.argsort(region == 0, axis=1, kind="stable")[:, :width]
    edges = _expand_slots(fld, bj, np.take_along_axis(region, bj, axis=1))
    return ParityCheck(gamma * (fld.q - 1), rho * (fld.q - 1), fld.q, *edges)


def build_code(spec: CodeSpec) -> tuple[ParityCheck, np.ndarray, SubgroupIndexing, GF2m]:
    """Full construction: base matrix, truncation and CPM expansion."""
    w, indexing, fld = build_base(spec)
    h = expand_base(fld, w, spec.gamma, spec.rho)
    return h, w, indexing, fld


def recover_base_region(h: ParityCheck, fld: GF2m) -> np.ndarray:
    """Read the truncated base-matrix region back from H's edge arrays.

    CPM row 0 of a block holds the block's element.  H must equal the
    expansion of those rows 0 (as in expand_base), which one comparison
    over (block row, CPM row, slot) checks, and their edges must come
    first, in strictly increasing block columns, so that W keeps each one.
    """
    qm1 = fld.q - 1
    bj, d = h.edge_cols[::qm1] // qm1, h.edge_labels[::qm1]  # (block row, slot)
    want_cols, want_labels = _expand_slots(fld, bj, d)
    bad = np.argwhere((h.edge_cols != want_cols) | (h.edge_labels != want_labels))
    if len(bad):
        row, s = bad[0]
        col = h.edge_cols[row, s] if h.edge_labels[row, s] else want_cols[row, s]
        raise ValueError(
            f"block ({row // qm1},{col // qm1}) is not a CPM: its row {row % qm1} is not row 0 shifted"
        )
    live = d != 0
    unordered = np.argwhere(live[:, 1:] & ~(live[:, :-1] & (np.diff(bj, axis=1) > 0)))
    if len(unordered):
        raise ValueError(f"block row {unordered[0, 0]}: edges not in increasing block columns")
    w = np.zeros((h.num_block_rows, h.num_block_cols), dtype=np.int64)
    bi, s = np.nonzero(d)
    w[bi, bj[bi, s]] = d[bi, s]
    return w
