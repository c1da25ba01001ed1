"""Machine checks for the shifting/symmetry structure of base matrices.

Every check returns a CheckResult with the first counterexample found (if
any).  Checks are formulated on the untruncated base matrix W; truncation
destroys the wrap-around that the block-level shift identities rely on, so
a matrix smaller than W is read as its top-left region (e.g. the gamma x
rho region of a code file): the wrapped comparisons are skipped and the
recorded scope says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf import GF2m


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    scope: str
    passed: bool
    counterexample: tuple | None = None

    def __str__(self) -> str:
        status = "pass" if self.passed else f"FAIL at {self.counterexample}"
        return f"{self.check_id:24s} [{self.scope}] {status}"


@dataclass
class PropertyReport:
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [str(c) for c in self.checks]
        lines += [f"note: {n}" for n in self.notes]
        lines.append("RESULT: " + ("all checks passed" if self.all_passed else "FAILURES present"))
        return "\n".join(lines)


def _scope(region_rows: int, region_cols: int, dim: int) -> str:
    if region_rows == dim and region_cols == dim:
        return f"full {dim}x{dim} base matrix"
    return f"top-left {region_rows}x{region_cols} region of {dim}x{dim} base matrix"


def _compare(check_id, w, c, n, partner, act=None, wrapped=None, values=True) -> CheckResult:
    """Compare entry (i*n + k, j*n + l) of every block (i, j) and offset
    (k, l) in w with the entry at partner(i, j, k, l), mapped by `act` if
    given, all at once.  w is the top-left region of the c*n x c*n base
    matrix: pairs whose partner leaves it are skipped, and so are pairs
    marked by wrapped(i, j) unless w is the full matrix.  The
    counterexample is the first mismatch in (i, j, k, l) order:
    ((i, j), (k, l)), then both entries if `values`."""
    ent, dim = np.asarray(w), c * n
    rr, rc = ent.shape
    (i, k), (j, l) = divmod(np.arange(min(rr, dim))[:, None], n), divmod(np.arange(min(rc, dim)), n)
    r2, c2 = partner(i, j, k, l)
    keep = (r2 < rr) & (c2 < rc)
    if wrapped is not None and not rr == rc == dim:
        keep &= ~wrapped(i, j)
    a, b = ent[: len(i), : len(j)], ent[np.minimum(r2, rr - 1), np.minimum(c2, rc - 1)]
    bad = keep & (a != (b if act is None else act(b)))
    if not bad.any():
        return CheckResult(check_id, _scope(rr, rc, dim), True)
    at = np.unravel_index(np.where(bad, ((i * c + j) * n + k) * n + l, dim * dim).argmin(), bad.shape)
    (bi, bk), (bj, bl) = divmod(int(at[0]), n), divmod(int(at[1]), n)
    cex = ((bi, bj), (bk, bl)) + ((int(a[at]), int(b[at])) if values else ())
    return CheckResult(check_id, _scope(rr, rc, dim), False, cex)


def check_class1_block_shift(w, c: int, n: int) -> CheckResult:
    """Each n x n block equals its upper-left cyclic neighbor."""
    return _compare(
        "block_shift", w, c, n,
        lambda i, j, k, l: ((i - 1) % c * n + k, (j - 1) % c * n + l),
        wrapped=lambda i, j: ((i - 1) % c > i) | ((j - 1) % c > j),
    )


def check_class1_inner_shift(w, c: int, n: int, fld: GF2m, beta_elt: int) -> CheckResult:
    """Within each block, entry (k,l) = beta * entry((k-1) mod n, (l-1) mod n)."""
    return _compare(
        "inner_shift", w, c, n,
        lambda i, j, k, l: (i * n + (k - 1) % n, j * n + (l - 1) % n),
        act=lambda b: fld.mul_table[beta_elt, b],
    )


def check_class2_symmetries(w, c: int, n: int) -> list[CheckResult]:
    """Diagonal and anti-diagonal symmetry at block and within-block level."""
    partners = {
        "block_sym_diag": lambda i, j, k, l: (j * n + k, i * n + l),
        "block_sym_antidiag": lambda i, j, k, l: ((c - j - 1) * n + k, (c - i - 1) * n + l),
        "entry_sym_diag": lambda i, j, k, l: (i * n + l, j * n + k),
        "entry_sym_antidiag": lambda i, j, k, l: (i * n + (n - l - 1), j * n + (n - k - 1)),
    }
    return [
        _compare(check_id, w, c, n, partner, values=False)
        for check_id, partner in partners.items()
    ]


def check_subgroup_symmetry(beta, delta) -> list[CheckResult]:
    """Palindromic sums: x_i + x_(N-1-i) = x_(N-1) for both subgroup orderings."""
    results = []
    for name, seq in (("beta_palindrome", beta), ("delta_palindrome", delta)):
        seq = np.asarray(seq)
        bad = np.flatnonzero(seq ^ seq[::-1] != seq[-1])[:1]
        cex = tuple(int(v) for i in bad for v in (i, seq[i], seq[-1 - i], seq[-1])) or None
        results.append(CheckResult(name, f"{len(seq)}-element subgroup ordering", cex is None, cex))
    return results


def verify_class1(fld: GF2m, w, c: int, n: int) -> PropertyReport:
    return PropertyReport([check_class1_block_shift(w, c, n),
                           check_class1_inner_shift(w, c, n, fld, fld.pow_alpha(c))])


def verify_class2(fld: GF2m, w, c: int, n: int) -> PropertyReport:
    """The symmetry checks, and on a W that spans full width the palindrome
    checks of the subgroup orderings, read from row 0: both orderings start
    at zero, so w[0, l] = beta_l and w[0, j*n] = delta_j."""
    w = np.asarray(w)
    checks = check_class2_symmetries(w, c, n)
    if w.shape[1] == c * n:
        checks += check_subgroup_symmetry(w[0, :n], w[0, ::n])
    note = "within-block diagonal symmetry is implemented as entry (k,l) == entry (l,k)"
    return PropertyReport(checks, [note])
