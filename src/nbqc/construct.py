"""Construction of Class-I and Class-II non-binary QC-LDPC parity checks.

Class-I codes come from the multiplicative subgroups of GF(q) obtained by
factoring q-1 = c*n with gcd(c, n) = 1.  Class-II codes come from the two
complementary additive subgroups spanned by {alpha^0..alpha^(t-1)} and
{alpha^t..alpha^(m-1)}.  Both yield a dense (c*n) x (c*n) base matrix W of
field elements; each entry is expanded into a (q-1) x (q-1) circulant
permutation matrix (CPM) and the top-left gamma x rho block sub-array is
the sparse parity-check matrix H.  ParityCheck keeps that gamma x rho
region of W and derives H's layers, one per CPM block row, from it on
first read.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .gf import GF2m, check_degree

CLASS_I = 1
CLASS_II = 2
Layers = tuple[tuple[np.ndarray, np.ndarray], ...]  # H's (cols, labels) per CPM block row


@dataclass(frozen=True)
class CodeSpec:
    """Construction parameters for one code.

    For Class-I, q-1 = c*n with gcd(c, n) = 1 and t is None.
    For Class-II, c = 2^(m-t) and n = 2^t are derived from (m, t).
    gamma/rho are the truncation block counts, 1 <= gamma, rho <= c*n.
    A spec is valid once it exists: the constructor raises ValueError
    naming the first violated condition.
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

    def __post_init__(self) -> None:
        if self.code_class not in (CLASS_I, CLASS_II):
            raise ValueError(f"unknown code class {self.code_class}")
        check_degree(self.m)
        if self.code_class == CLASS_I:
            if self.c * self.n != self.q - 1:
                raise ValueError(
                    f"Class-I factorization violated: c*n = {self.c * self.n} != q-1 = {self.q - 1}"
                )
            if math.gcd(self.c, self.n) != 1:
                raise ValueError(
                    f"Class-I factorization violated: gcd(c, n) must be 1, got gcd({self.c}, {self.n})"
                )
            if self.t is not None:
                raise ValueError(f"the split exponent t={self.t} is Class-II only")
            if self.surjective_seed is not None:
                raise ValueError("a random subgroup ordering (surjective_seed) is Class-II only")
        else:
            if self.t is None or not 1 <= self.t < self.m:
                raise ValueError(f"Class-II split exponent t={self.t} out of range [1, m)")
            if self.c != 1 << (self.m - self.t) or self.n != 1 << self.t:
                raise ValueError("Class-II requires c = 2^(m-t) and n = 2^t")
        for name, blocks in (("gamma", self.gamma), ("rho", self.rho)):
            if not 1 <= blocks <= self.dim:
                raise ValueError(f"{name}={blocks} out of range [1, {self.dim}]")

    @staticmethod
    def class1(m: int, c: int, n: int, gamma: int, rho: int, **kw) -> "CodeSpec":
        return CodeSpec(CLASS_I, m, c, n, gamma, rho, **kw)

    @staticmethod
    def class2(m: int, t: int, gamma: int, rho: int, **kw) -> "CodeSpec":
        return CodeSpec(CLASS_II, m, 1 << (m - t), 1 << t, gamma, rho, t=t, **kw)


@dataclass(frozen=True)
class SubgroupIndexing:
    """Ordered subgroup element lists beta_0..beta_(n-1) and delta_0..delta_(c-1)."""

    beta: tuple[int, ...]
    delta: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ParityCheck:
    """CPM expansion H of a gamma x rho base-matrix region over GF(q).

    The region is H's stored form.  Its expanded form, derived on first
    read, is `layers`: per CPM block row t, read-only (q-1, d_t) arrays of
    the columns (increasing along each row) and the nonzero labels of the
    edges of its rows (see expand_base).  A copy, by pickle too, is rebuilt
    from the field and the region.
    """

    fld: GF2m = field(repr=False)
    region: np.ndarray = field(repr=False)
    rows: int = field(init=False)
    cols: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self) -> None:
        region = np.array(self.region, dtype=np.int64)
        if region.ndim != 2:
            raise ValueError(f"a base-matrix region is 2-D, got shape {region.shape}")
        check_elements(self.fld, region)
        region.flags.writeable = False
        q, (gamma, rho) = self.fld.q, region.shape  # frozen: the fields are set here only
        vars(self).update(region=region, rows=gamma * (q - 1), cols=rho * (q - 1), q=q)

    def __reduce__(self):
        return ParityCheck, (self.fld, self.region)

    @functools.cached_property
    def layers(self) -> Layers:
        return expand_base(self.fld, self.region)

    @property
    def num_block_rows(self) -> int:
        return self.region.shape[0]

    def nnz(self) -> int:
        return (self.q - 1) * int(np.count_nonzero(self.region))

    @property
    def row_entries(self) -> list[np.ndarray]:
        """Per row, a (degree, 2) array of (column, label) pairs, stacked from the layers."""
        return [pairs for layer in self.layers for pairs in np.stack(layer, axis=-1)]


def check_elements(fld: GF2m, d: np.ndarray) -> None:
    """Raise ValueError unless every entry of d is an element of the field."""
    bad = (d < 0) | (d >= fld.q)
    if bad.any():
        raise ValueError(f"{d[bad][0]} is not an element of GF({fld.q})")


def cpm(fld: GF2m, d) -> tuple[np.ndarray, np.ndarray]:
    """(q-1) x (q-1) circulant permutation matrix of element d, or of each
    element of an array d, as (columns, values) of shape d.shape + (q-1,).

    Row r is the location vector of alpha^r * d: value alpha^r * d at
    column log(alpha^r * d).  So row r+1 is row r shifted right once and
    times alpha.  The zero element gives the zero matrix: value 0 in every
    row (column -1).
    """
    d = np.asarray(d)
    check_elements(fld, d)
    values = fld.mul_table[d[..., None], fld.antilog_table]
    return fld.log_table[values], values


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
    out = [0]
    for r in range(1, len(basis_powers) + 1):  # each size in lexicographic order
        for s in itertools.combinations(sorted(basis_powers), r):
            out.append(int(np.bitwise_xor.reduce(fld.antilog_table[list(s)])))
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
    # delta^(j-i) * beta^k = alpha^(n(j-i) + ck), and delta has order c
    w = fld.antilog_table[(n * ((j - i) % c) + c * k) % (q - 1)] ^ beta[l]
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


def build_base(spec: CodeSpec) -> tuple[np.ndarray, SubgroupIndexing, GF2m]:
    fld = GF2m(spec.m, spec.primitive_poly)
    if spec.code_class == CLASS_I:
        return (*build_base_class1(fld, spec.c, spec.n), fld)
    beta = delta = None  # the symmetry-inducing orderings
    if spec.surjective_seed is not None:
        beta = random_index_subgroup(fld, list(range(spec.t)), spec.surjective_seed)
        delta = random_index_subgroup(fld, list(range(spec.t, spec.m)), spec.surjective_seed + 1)
    return (*build_base_class2(fld, spec.t, beta, delta), fld)


def expand_base(fld: GF2m, region: np.ndarray) -> Layers:
    """H's layers: per block row of the region, read-only (q-1, d) arrays
    of the columns and labels of its rows' edges, d being the block row's
    number of nonzero blocks.

    A row's edges are the nonzero blocks of its block row in block-column
    order; block (bi, bj) puts CPM row r's edge in row r of layer bi, at
    column bj*(q-1) + log(alpha^r w) with label alpha^r w (see cpm).
    """
    layers = []
    for row in region:
        bj = np.flatnonzero(row)
        cols, labels = cpm(fld, row[bj])  # (block, CPM row) each
        layer = np.stack((cols + bj[:, None] * (fld.q - 1), labels)).transpose(0, 2, 1).copy()
        layer.flags.writeable = False  # and so are its views, the (cols, labels) pair
        layers.append(tuple(layer))
    return tuple(layers)


def build_code(spec: CodeSpec) -> tuple[ParityCheck, np.ndarray, SubgroupIndexing, GF2m]:
    """Full construction: base matrix, truncation and CPM expansion."""
    w, indexing, fld = build_base(spec)
    h = ParityCheck(fld, w[: spec.gamma, : spec.rho])
    return h, w, indexing, fld

