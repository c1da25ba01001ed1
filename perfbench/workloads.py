"""Workload definitions and the set-up step they share.

This module imports neither numpy nor nbqc at the top, so that `setup`
can time a fresh interpreter's import of the package as part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class DecodeJob:
    """A `run_monte_carlo` sweep, repeated unchanged in every round."""

    ref: str  # key of its reference rows in refs.json
    spec: tuple  # ("class1", m, c, n, gamma, rho) or ("class2", m, t, gamma, rho)
    snrs: tuple[float, ...]
    trials: int  # frames per SNR point
    max_iter: int
    quant: tuple[int, int] | None


@dataclass(frozen=True)
class Workload:
    name: str
    decode: DecodeJob
    decodes: int  # decode jobs per round
    codes: tuple[str, ...]  # keys of CODES: construct, verify and route each
    cost_points: tuple[str, ...]  # keys of COST_POINTS
    cli_passes: int  # CLI passes per round
    round_s: float  # nominal round seconds at the reference commit, 2-core Xeon


Q8_SWEEP = DecodeJob("q8-sweep", ("class2", 3, 1, 3, 6), (1.0, 2.0, 3.0), 20, 10, None)
Q64_FRAME = DecodeJob("q64-frame", ("class1", 6, 7, 9, 10, 20), (3.0,), 1, 1, (6, 2))

# `nbqc construct` flags per code.
CODES = {
    "q8-c2": ("--class", "2", "--m", "3", "--t", "1", "--gamma", "3", "--rho", "8"),
    "q8-c1": ("--class", "1", "--m", "3", "--c", "1", "--n", "7", "--gamma", "3", "--rho", "7"),
    "q64-c1": ("--class", "1", "--m", "6", "--c", "7", "--n", "9", "--gamma", "10", "--rho", "20"),
    "q32-c2": ("--class", "2", "--m", "5", "--t", "4", "--gamma", "16", "--rho", "32"),
    "m8-c2": ("--class", "2", "--m", "8", "--t", "4", "--gamma", "16", "--rho", "256"),
    "m8-c1": ("--class", "1", "--m", "8", "--c", "15", "--n", "17", "--gamma", "8", "--rho", "255"),
}

# `nbqc cost` flags per design point.
COST_POINTS = {
    "q8": ("--bq", "6", "--nm", "16", "--dc", "4", "--q", "8", "--gamma", "3", "--rho", "6"),
    "q64": ("--bq", "6", "--nm", "16", "--dc", "4", "--q", "64", "--gamma", "10", "--rho", "20"),
    "q32": ("--bq", "6", "--nm", "16", "--dc", "4", "--q", "32", "--gamma", "16", "--rho", "32"),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-q8", Q8_SWEEP, 1, ("q8-c2", "q8-c1"), ("q8",), 2, 2.4),
        Workload("decode-q64", Q64_FRAME, 1, ("q64-c1", "q32-c2"), ("q64", "q32"), 3, 8.5),
        Workload("toolchain-m8", Q8_SWEEP, 3, ("m8-c2", "m8-c1"), ("q64", "q32"), 1, 12.8),
    )
}


def make_spec(spec: tuple):
    from nbqc.construct import CodeSpec

    kind, *args = spec
    return CodeSpec.class1(*args) if kind == "class1" else CodeSpec.class2(*args)


@dataclass
class State:
    """What set-up leaves for the timed operations."""

    h: object
    fld: object
    schedule: object


def setup(wl: Workload) -> State:
    """Import the package, build the decoded code and its layer schedule."""
    import nbqc.cli  # noqa: F401  (the CLI is timed, so its import is set-up)
    from nbqc.construct import build_code
    from nbqc.decode import LAYER_I, build_layer_schedule

    h, _, _, fld = build_code(make_spec(wl.decode.spec))
    return State(h, fld, build_layer_schedule(h, LAYER_I))
