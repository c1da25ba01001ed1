"""Hardware-complexity model for the decoder shuffle networks.

Evaluates the per-category component counts of four proposed network
designs (P1..P4) and two reference decoder designs (Ref4, Ref5), plus
savings ratios between them.  The aggregate headline savings quoted for
these designs depend on unstated category weights and parameter values,
so aggregates here are always weight-parameterized and reported next to
the exact per-category ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

VARIANTS = ("P1", "P2", "P3", "P4", "Ref4", "Ref5")

CATEGORIES = (
    "gsn_wires",
    "gsn_demux",
    "gsn_lut_bits",
    "lsn_wires",
    "lsn_demux",
    "lsn_crossbars",
    "lsn_lut_bits",
)

AMBIGUITY_NOTE = (
    "headline aggregate savings for these designs combine wires, de-MUXes and "
    "LUT bits with unstated weights and unstated (b_q, n_m, d_c, p) values, and "
    "the reference designs were characterized on a different (32-ary (837, 726) "
    "rate-0.85 Class-I) code; only per-category ratios are reproduced exactly. "
    "Likewise the quoted Class-II network reduction is the arithmetic "
    "(k-1)/k = 15/16 = 93.75% with k = 16 for the q = 32 example."
)


@dataclass(frozen=True)
class CostParams:
    b_q: int  # quantization bits
    n_m: int  # Min-Max candidate-selection parameter (cost model only)
    d_c: int  # check-node degree
    q: int
    gamma: int
    rho: int
    p: int | None = None  # LUT word size; defaults to ceil(log2 q)

    def __post_init__(self) -> None:
        for name in ("b_q", "n_m", "d_c", "q", "gamma", "rho"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.p is not None and self.p < 1:
            raise ValueError(f"LUT word size p must be a positive integer, got {self.p}")

    @property
    def lut_word(self) -> int:
        return self.p if self.p is not None else math.ceil(math.log2(self.q))


@dataclass(frozen=True)
class CostBreakdown:
    variant: str
    gsn_wires: int
    gsn_demux: int
    gsn_lut_bits: int
    lsn_wires: int | None  # None marks a not-applicable category
    lsn_demux: int | None
    lsn_crossbars: int | None
    lsn_lut_bits: int | None
    supports_class1: bool
    supports_class2: bool
    flexible: bool
    rho_padded: bool = False

    def category(self, name: str) -> int | None:
        return getattr(self, name)


def _crossbar_counts(rho: int) -> tuple[int, int, bool]:
    """(crossbars, lut_bits, padded): rho(log2 rho - 1/2) switches and
    (gamma-independent part) gamma*rho*log2(rho)/2 LUT bits use the width
    padded to the next power of two when rho is not one."""
    padded = bool(rho & (rho - 1))
    width = 1 << math.ceil(math.log2(rho)) if padded else rho
    log2w = width.bit_length() - 1
    return width * log2w - width // 2, width * log2w, padded


def cost(variant: str, params: CostParams) -> CostBreakdown:
    """Exact integer component counts for one design variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    q, gamma, rho = params.q, params.gamma, params.rho
    p = params.lut_word
    qm1 = q - 1
    base_wires = params.b_q * params.n_m * qm1 * params.d_c
    switches, xbar_lut_base, padded = _crossbar_counts(rho)

    if variant in ("Ref4", "Ref5"):
        lut = p * qm1 * (rho + gamma * (gamma - 1) // 2) if variant == "Ref4" else p * qm1 * (
            3 * rho + gamma - 2
        )
        return CostBreakdown(
            variant,
            gsn_wires=3 * base_wires,
            gsn_demux=3 * qm1 * rho,
            gsn_lut_bits=lut,
            lsn_wires=None,
            lsn_demux=None,
            lsn_crossbars=None,
            lsn_lut_bits=None,
            supports_class1=True,
            supports_class2=False,
            flexible=False,
        )

    gsn_demux = 0 if variant == "P1" else qm1 * rho
    gsn_lut = 0 if variant == "P1" else p * qm1 * rho
    lsn_wires = params.b_q * qm1 * gamma * (2 if variant == "P4" else 1)
    lsn_demux = params.b_q * qm1 * gamma if variant == "P4" else 0
    has_xbar = variant in ("P3", "P4")
    # gamma * width * log2(width) is even for power-of-two widths >= 2
    xbar_lut = gamma * xbar_lut_base // 2 if has_xbar else 0
    return CostBreakdown(
        variant,
        gsn_wires=base_wires,
        gsn_demux=gsn_demux,
        gsn_lut_bits=gsn_lut,
        lsn_wires=lsn_wires,
        lsn_demux=lsn_demux,
        lsn_crossbars=switches if has_xbar else 0,
        lsn_lut_bits=xbar_lut,
        supports_class1=variant != "P3",
        supports_class2=has_xbar,
        flexible=variant != "P1",
        rho_padded=padded and has_xbar,
    )


def savings(a: CostBreakdown, b: CostBreakdown, weights: dict[str, float] | None = None) -> float:
    """1 - weighted(a)/weighted(b) over categories applicable to both.

    Default weighting counts wires only.
    """
    if weights is None:
        weights = {"gsn_wires": 1.0, "lsn_wires": 1.0}
    num = den = 0.0
    used = False
    for cat, wgt in weights.items():
        if cat not in CATEGORIES:
            raise ValueError(f"unknown category {cat!r}")
        va, vb = a.category(cat), b.category(cat)
        if va is None or vb is None:
            continue
        num += wgt * va
        den += wgt * vb
        used = True
    if not used or den == 0:
        raise ZeroDivisionError("no comparable weighted categories with nonzero total")
    return 1.0 - num / den


# the P* formula of each category, the last column of render_report
_FORMULAS = {
    "gsn_wires": "b_q*n_m*(q-1)*d_c",
    "gsn_demux": "(q-1)*rho",
    "gsn_lut_bits": "p*(q-1)*rho",
    "lsn_wires": "b_q*(q-1)*gamma",
    "lsn_demux": "0",
    "lsn_crossbars": "rho*(log2(rho)-1/2)",
    "lsn_lut_bits": "gamma*rho*log2(rho)/2",
}


def render_report(params: CostParams, as_csv: bool = False) -> str:
    """Table-shaped comparison grid with evaluated numbers and formulas."""
    breakdowns = [cost(v, params) for v in VARIANTS]

    def cell(bd: CostBreakdown, cat: str) -> str:
        val = bd.category(cat)
        return "-" if val is None else str(val)

    rows: list[list[str]] = [["category"] + list(VARIANTS) + ["formula(P*)"]]
    for cat in CATEGORIES:
        rows.append([cat] + [cell(bd, cat) for bd in breakdowns] + [_FORMULAS[cat]])
    flag_rows = (
        ("class1_support", lambda bd: "Yes" if bd.supports_class1 else "No"),
        ("class2_support", lambda bd: "Yes" if bd.supports_class2 else "No"),
        ("flexibility", lambda bd: "Yes" if bd.flexible else "No"),
    )
    for name, fn in flag_rows:
        rows.append([name] + [fn(bd) for bd in breakdowns] + ["-"])

    notes = [AMBIGUITY_NOTE]
    if any(bd.rho_padded for bd in breakdowns):
        notes.append(
            f"rho={params.rho} is not a power of two; crossbar and LSN LUT rows use "
            "the width padded to the next power of two"
        )

    if as_csv:
        lines = [",".join(r) for r in rows]
    else:
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(f"{v:<{w}}" for v, w in zip(r, widths)) for r in rows]
    lines.extend(f"note: {n}" for n in notes)
    return "\n".join(lines)
