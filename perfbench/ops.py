"""Timed operations, the observations their outputs yield, and the checks
that compare those observations with the references in refs.json.

Every operation goes through the package's public API: `run_monte_carlo`
or `nbqc.cli.main` called in-process with its output captured.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import os
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from workloads import CODES, COST_POINTS, DecodeJob, State

_LAYER_RE = re.compile(r"^layer (\d+)->(\d+): .* realized=(yes|NO) cycles=(.*)$")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_call(argv: list[str]) -> tuple[int, str, str, float]:
    """Run `nbqc.cli.main(argv)`; return exit code, stdout, stderr, seconds."""
    from nbqc import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse refused the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _counts(snr, trials, fe, se, ber, avg_iters, bits_per_frame) -> list:
    """One SNR point as exact integers: bit errors and total iterations
    are recovered from the reported ratios."""
    return [
        float(snr),
        int(trials),
        int(fe),
        int(se),
        round(float(ber) * int(trials) * bits_per_frame),
        round(float(avg_iters) * int(trials)),
    ]


def decode_direct(job: DecodeJob, st: State, rng_seed: int, workers: int = 1):
    """One sweep through `run_monte_carlo`; returns (seconds, rows)."""
    from nbqc.decode import DecoderConfig, run_monte_carlo

    config = DecoderConfig(max_iter=job.max_iter, quant=job.quant, rng_seed=rng_seed)
    t0 = time.perf_counter()
    rows = run_monte_carlo(
        st.h, st.schedule, st.fld, list(job.snrs), job.trials, config, workers=workers
    )
    dt = time.perf_counter() - t0
    bits = st.h.cols * st.fld.m
    return dt, [
        _counts(r.snr_db, r.trials, r.frame_errors, r.symbol_errors, r.ber, r.avg_iters, bits)
        for r in rows
    ]


@dataclass(frozen=True)
class Code:
    """What a code file describes, as the package's own parser reads it."""

    h_sha256: str  # sha256 of H's shape and its (row, column, value) triples
    qm1: int  # q - 1, the CPM size
    cols: int
    support: list[np.ndarray]  # column indices of each row of H


def read_code(text: str) -> Code:
    from nbqc import codefile

    # unwrapped when a traced run has wrapped it, so the check adds no span
    _, h, _ = inspect.unwrap(codefile.parse_code)(text)
    digest = hashlib.sha256(np.array([h.rows, h.cols, h.q], dtype=np.int64).tobytes())
    support = []
    for r, entries in enumerate(h.row_entries):
        cv = np.array(entries, dtype=np.int64).reshape(-1, 2)
        digest.update(np.column_stack([np.full(len(cv), r), cv]).tobytes())
        support.append(cv[:, 0])
    return Code(digest.hexdigest(), h.q - 1, h.cols, support)


class CodeFiles:
    """Code files written by `construct`, and what the checks learn from
    them, cached by the file's bytes so that a repeated construct is read
    once."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self._codes: dict[str, Code] = {}
        self._replay: dict[tuple[str, str], int] = {}
        self._last: dict[str, str] = {}  # label -> file digest of its last construct

    def path(self, label: str) -> str:
        return os.path.join(self.workdir, f"{label}.nbqc")

    def read(self, label: str) -> Code:
        with open(self.path(label), "rb") as f:
            data = f.read()
        key = sha256(data)
        if key not in self._codes:
            self._codes[key] = read_code(data.decode())
        self._last[label] = key
        return self._codes[key]

    def replay(self, label: str, report: str) -> int | None:
        """Rows that the route report fails to park (see
        replay_mismatch_rows); None if construct wrote no file."""
        key = self._last.get(label)
        if key is None:
            return None
        rkey = (key, sha256(report.encode()))
        if rkey not in self._replay:
            self._replay[rkey] = replay_mismatch_rows(self._codes[key], report)
        return self._replay[rkey]


def parse_moves(report: str, size: int) -> dict[int, np.ndarray]:
    """Source layer -> VNU permutation (map[src] = dst) from a route report."""
    moves = {}
    for line in report.splitlines():
        m = _LAYER_RE.match(line)
        if not m:
            continue
        perm = np.arange(size)
        if m.group(4) != "(identity)":
            # "(a b c) (d e)" -> a b c -1 d e -1: a cycle maps each entry to
            # the next and its last entry back to its first
            toks = np.array(m.group(4).replace("(", " ").replace(")", " -1").split(), dtype=np.int64)
            ends = toks == -1
            vals = toks[~ends]
            cyc = np.cumsum(ends)[~ends]
            last = np.r_[cyc[1:] != cyc[:-1], True]
            nxt = np.arange(1, vals.size + 1)
            nxt[last] = np.flatnonzero(np.r_[True, last[:-1]])
            perm[vals] = vals[nxt]
        moves[int(m.group(1))] = perm
    return moves


def replay_mismatch_rows(code: Code, report: str) -> int:
    """Rows the reported moves fail to park on layer 0's wiring.

    Column positions start as the identity and, after layer t, move by
    layer t's reported permutation; every row of layer t must then sit on
    exactly the positions that the same row offset of layer 0 occupies.
    """
    qm1, support = code.qm1, code.support
    moves = parse_moves(report, code.cols)
    gamma = len(support) // qm1
    wired = [np.sort(support[e]) for e in range(qm1)]
    pos = np.arange(code.cols)
    bad = 0
    for t in range(gamma):
        for e in range(qm1):
            if not np.array_equal(np.sort(pos[support[t * qm1 + e]]), wired[e]):
                bad += 1
        if t + 1 < gamma:
            if t not in moves:  # the later layers cannot be reached
                return bad + (gamma - 1 - t) * qm1
            pos = moves[t][pos]
    return bad


def construct(label: str, files: CodeFiles):
    """`nbqc construct` of one code; returns (seconds, observation)."""
    path = files.path(label)
    rc, stdout, err, dt = cli_call(["construct", *CODES[label], "-o", path])
    h_sha256 = files.read(label).h_sha256 if rc == 0 else ""
    return dt, {"rc": rc, "stdout": stdout.replace(path, "<path>"), "h_sha256": h_sha256}


def verify(label: str, files: CodeFiles):
    rc, stdout, err, dt = cli_call(["verify", files.path(label)])
    return dt, {"rc": rc, "result": [ln for ln in stdout.splitlines() if ln.startswith("RESULT:")]}


def route(label: str, files: CodeFiles):
    path = files.path(label)
    rc, stdout, err, dt = cli_call(["route", "--code", path])
    lines = [m for m in map(_LAYER_RE.match, stdout.splitlines()) if m]
    obs = {
        "rc": rc,
        "layers": len(lines),
        "realized": all(m.group(3) == "yes" for m in lines),
        "total": [ln for ln in stdout.splitlines() if ln.startswith("total control bits")],
    }
    if rc == 0:
        obs["mismatch_rows"] = files.replay(label, stdout)
    return dt, obs


CLI_COMMANDS = {"construct": construct, "verify": verify, "route": route}


def cost_call(point: str):
    rc, stdout, err, dt = cli_call(["cost", *COST_POINTS[point]])
    return dt, {"rc": rc, "sha256": sha256(stdout.encode())}


def check(kind: str, obs, ref) -> str | None:
    """None when an observation matches its reference, else the reason.

    Route may improve: fewer rows failing the replay than at the reference
    passes, more fails.
    """
    if ref is None:
        return f"{kind}: no reference recorded"
    if kind == "route":
        obs = dict(obs)
        ref = dict(ref)
        got, want = obs.pop("mismatch_rows", None), ref.pop("mismatch_rows")
        if got is None or got > want:
            return f"{kind}: {got} rows fail the replay against H, reference {want}"
    if obs != ref:
        return f"{kind}: got {obs}, reference {ref}"
    return None
