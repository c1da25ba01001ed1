#!/usr/bin/env python3
"""nbqc benchmark: decoding throughput, the headline codes and the design
toolchain, end to end and (with --trace 1) layer by layer.

    python3 perfbench/run.py --workload sim-q8 --seed 0 --seconds 35 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run facts and the samples behind each metric. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import ops  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CODES, ROOT, SRC, WORKLOADS, State, Workload, setup  # noqa: E402

SETUP_SAMPLES = 9

# Seconds `calibrate` takes on the reference host (2-core Xeon VM).
CALIBRATION_REF_S = 0.018
_CAL_INDEX = np.arange(64)

END_TO_END_UNITS = {
    "frames_per_s": "1/s",
    "cli_construct_s": "s",
    "cli_verify_s": "s",
    "cli_route_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Public functions wrapped by the traced run. gf is left out: its
# per-element calls would dominate; its time shows in its callers.
TRACED = (
    "decode.check_node_min_max",
    "decode.permute_message",
    "decode.process_row",
    "decode.channel_reliability",
    "decode.hard_decision",
    "decode.syndrome_zero",
    "decode.decode",
    "decode.run_monte_carlo",
    "construct.build_code",
    "construct.expand_base",
    "construct.recover_base_region",
    "codefile.format_code",
    "codefile.parse_code",
    "verify.verify_class1",
    "verify.verify_class2",
    "shuffle.route_schedule",
    "shuffle.BenesNetwork.route",
    "shuffle.simulate",
    "shuffle.RoutingReport.render",
    "cost.cost",
    "cli.main",
)

COUNTERS = {
    # kernel pairs: 3(d-2) min-max combinations of q x q pairs per check node
    "decode.check_node_min_max": lambda args, out: 3 * (len(args[0]) - 2) * len(args[0][0]) ** 2,
    "codefile.format_code": lambda args, out: len(out.encode()),
}

PER_LAYER_UNITS = {
    **{f"{name}.{k}": u for name in TRACED for k, u in (("self_s", "s"), ("calls", "count"))},
    "decode.check_node_min_max.pair_ops": "count",
    "decode.check_node_min_max.pair_ops_per_s": "1/s",
    "decode.iterations": "count",
    "decode.layer_s": "s",
    "decode.pool.speedup": "x",
    "decode.pool.w1_frames_per_s": "1/s",
    "decode.pool.w2_frames_per_s": "1/s",
    "codefile.bytes": "B",
    "shuffle.route_mismatch_rows": "count",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


class Session:
    """Runs one workload's operations, checks each output against its
    reference and counts what was attempted and what failed."""

    def __init__(self, wl: Workload, st: State, refs: dict, rng_seed: int, workdir: str) -> None:
        self.wl, self.st, self.refs, self.rng_seed = wl, st, refs, rng_seed
        self.files = ops.CodeFiles(workdir)
        self.attempted = 0
        self.failures: list[str] = []
        self.iterations = 0
        self.mismatch_rows: dict[str, int | None] = {}
        self.shapes: dict[str, dict | None] = {}
        # (kind, label) -> seconds of each run of that operation, as
        # measured and scaled to the reference host speed
        self.samples: dict[tuple[str, str], list[tuple[float, float]]] = {}

    def _record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")
            print(f"FAILED {what}: {problem}", file=sys.stderr)

    def plan(self) -> list[tuple[str, str]]:
        """One round: the decode jobs, then the CLI passes. A CLI pass runs
        construct, verify and route on every code, then cost at every
        design point."""
        cli = [(cmd, label) for label in self.wl.codes for cmd in ops.CLI_COMMANDS]
        cli += [("cost", point) for point in self.wl.cost_points]
        return [("decode", self.wl.decode.ref)] * self.wl.decodes + cli * self.wl.cli_passes

    def run(self, kind: str, label: str, workers: int = 1) -> float:
        """Run one operation between two calibrations and check its output.
        Returns its seconds, 0 if it raised."""
        c0 = calibrate()
        try:
            if kind == "decode":
                dt, obs = ops.decode_direct(self.wl.decode, self.st, self.rng_seed, workers)
                ref = self.refs["decode"][label].get(str(self.rng_seed))
            elif kind == "cost":
                dt, obs = ops.cost_call(label)
                ref = self.refs["cli"].get(f"cost:{label}")
            else:
                dt, obs = ops.CLI_COMMANDS[kind](label, self.files)
                ref = self.refs["cli"].get(f"{kind}:{label}")
        except Exception:
            self._record(f"{kind} {label}", traceback.format_exc())
            return 0.0
        scaled = dt * 2 * CALIBRATION_REF_S / (c0 + calibrate())
        self.samples.setdefault((kind, label), []).append((dt, scaled))
        self._record(f"{kind} {label}", ops.check(kind, obs, ref))
        if kind == "decode":
            self.iterations += sum(r[5] for r in obs)
        elif kind == "construct":
            self.shapes[label] = code_shape(label, obs["stdout"])
        elif kind == "route":
            self.mismatch_rows[label] = obs.get("mismatch_rows")
        return dt

    def round(self) -> float:
        """One round of the plan; returns the operations' summed seconds."""
        return sum(self.run(*op) for op in self.plan())

    def median(self, kind: str, label: str, frames: int | None = None) -> float:
        """Median scaled seconds of an operation, or frames per second."""
        scaled = [s for _, s in self.samples.get((kind, label), [])]
        if not scaled:
            return 0.0
        return statistics.median([frames / s for s in scaled] if frames else scaled)


def calibrate() -> float:
    """Seconds of a fixed task made of what the program spends its time in:
    small numpy ufunc calls, Python loops, and building and dropping dicts,
    lists and strings. It shares no code with the package, so it measures
    only how fast the host runs right now."""
    a = np.linspace(0.0, 1.0, 64)
    out = np.full(64, np.inf)
    t0 = time.perf_counter()
    for y in range(2500):
        np.minimum(out, np.maximum(a[y & 63], a[_CAL_INDEX ^ (y & 63)]), out=out)
    table = {(i, i & 255): i for i in range(40000)}
    text = ",".join([str(k) for k in range(30000)])
    del table, text
    return time.perf_counter() - t0


def code_shape(label: str, construct_stdout: str) -> dict | None:
    m = re.search(r"H is (\d+)x(\d+), nnz=(\d+)", construct_stdout)
    flags = CODES[label]
    q = 1 << int(flags[flags.index("--m") + 1])
    return {"q": q, "rows": int(m[1]), "cols": int(m[2]), "nnz": int(m[3])} if m else None


def setup_samples(wl: Workload) -> list[float]:
    """Set-up seconds of fresh interpreters, each timed from its first
    statement to a built code and schedule, scaled to the reference host
    speed by calibrations just before and after it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        code = (
            "import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]\n"
            "import workloads\n"
            f"workloads.setup(workloads.WORKLOADS[{wl.name!r}])\n"
            "print(time.perf_counter() - t0)\n"
        )
        c0 = calibrate()
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        c1 = calibrate()
        samples.append(float(proc.stdout.strip().splitlines()[-1]) * 2 * CALIBRATION_REF_S / (c0 + c1))
    return samples


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    """Closed loop over the round's operations. After the first round it
    stops before an operation that would end past `seconds`, judged by
    that operation's last run.

    On a shared host, other tenants' load slows the program by up to 2x for
    seconds at a time. So each timing is scaled by how much slower than on
    the reference host a calibration task ran around it, and a metric is
    the median of the scaled samples. A CLI metric sums that median over
    the workload's codes.
    """
    plan = session.plan()
    last: dict[tuple[str, str], float] = {}
    t0 = time.perf_counter()
    for i in itertools.count():
        op = plan[i % len(plan)]
        if i >= len(plan) and time.perf_counter() - t0 + last[op] > seconds:
            break
        r0 = time.perf_counter()
        session.run(*op)
        last[op] = time.perf_counter() - r0
    job = session.wl.decode
    frames = job.trials * len(job.snrs)
    metrics = {"frames_per_s": session.median("decode", job.ref, frames)}
    for cmd in ops.CLI_COMMANDS:
        metrics[f"cli_{cmd}_s"] = sum(session.median(cmd, label) for label in session.wl.codes)
    details = {
        "frames_per_s_unscaled": [frames / dt for dt, _ in session.samples.get(("decode", job.ref), [])],
        "samples": {f"{k}:{label}": [s for _, s in v] for (k, label), v in session.samples.items()},
    }
    return metrics, details


def measure_traced(session: Session, pool_session: Session, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: after the worker pool's speed-up on the sim-q8
    sweep and a warm-up round, a fixed number of rounds run traced, then
    again untraced for the tracing overhead."""
    workers = min(2, os.cpu_count() or 1)
    frames = len(pool_session.wl.decode.snrs) * pool_session.wl.decode.trials
    base = pool_session.run("decode", pool_session.wl.decode.ref, workers=1)
    pooled = pool_session.run("decode", pool_session.wl.decode.ref, workers=workers)
    w1 = frames / base if base else 0.0
    w2 = frames / pooled if pooled else 0.0

    n_rounds = max(1, int(seconds / 3 / session.wl.round_s))
    session.round()  # warm-up, so the traced and untraced rounds start alike
    it0 = session.iterations
    tracer = Tracer(TRACED, COUNTERS)
    with tracer:
        traced_s = sum(session.round() for _ in range(n_rounds))
    iterations = session.iterations - it0
    untraced_s = sum(session.round() for _ in range(n_rounds))

    summary = tracer.summary()
    metrics = {}
    for name, rec in summary.items():
        metrics[f"{name}.self_s"] = rec["self_s"]
        metrics[f"{name}.calls"] = rec["calls"]
    kernel = summary["decode.check_node_min_max"]
    pair_ops = tracer.counts["decode.check_node_min_max"]
    layers = iterations * session.st.h.num_block_rows
    self_sum = sum(rec["self_s"] for rec in summary.values())
    metrics.update({
        "decode.check_node_min_max.pair_ops": pair_ops,
        "decode.check_node_min_max.pair_ops_per_s": pair_ops / kernel["self_s"] if kernel["self_s"] else 0.0,
        "decode.iterations": iterations,
        "decode.layer_s": summary["decode.decode"]["total_s"] / layers if layers else 0.0,
        "decode.pool.speedup": w2 / w1 if w1 else 0.0,
        "decode.pool.w1_frames_per_s": w1,
        "decode.pool.w2_frames_per_s": w2,
        "codefile.bytes": tracer.counts["codefile.format_code"],
        "shuffle.route_mismatch_rows": sum(v or 0 for v in session.mismatch_rows.values()),
        "trace.wall_s": traced_s,
        "trace.self_sum_s": self_sum,
        "trace.untraced_s": traced_s - self_sum,
        "trace.overhead_s": traced_s - untraced_s,
    })
    details = {
        "traced_rounds": n_rounds,
        "pool_workers": workers,
        "spans": len(tracer.spans),
        "untraced_wall_s": untraced_s,
    }
    return metrics, details


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_facts(wl: Workload, session: Session, seed: int) -> dict:
    import numpy

    h = session.st.h
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "nbqc").rglob("*.py"))
    )
    return {
        "workload": wl.name,
        "seed": seed,
        "rng_seed": session.rng_seed,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "decode_code": {
            "q": h.q, "rows": h.rows, "cols": h.cols, "nnz": h.nnz(),
            "spec": list(wl.decode.spec),
        },
        "cli_codes": session.shapes,
        "route_mismatch_rows": session.mismatch_rows,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, refs: dict) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, facts)."""
    rng_seed = refs["seeds"][seed % len(refs["seeds"])]
    workdir = ROOT / ".perfbench_tmp" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = statistics.median(setup_samples(wl))
        t0 = time.perf_counter()
        st = setup(wl)
        main_setup_s = time.perf_counter() - t0
        session = Session(wl, st, refs, rng_seed, str(workdir))
        if trace:
            q8 = WORKLOADS["sim-q8"]
            pool_st = st if wl.decode is q8.decode else setup(q8)
            pool_session = Session(q8, pool_st, refs, rng_seed, str(workdir))
            metrics, details = measure_traced(session, pool_session, seconds)
            session.attempted += pool_session.attempted
            session.failures += pool_session.failures
            units = PER_LAYER_UNITS
        else:
            metrics, details = measure(session, seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
        facts = run_facts(wl, session, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    details.update({"main_setup_s": main_setup_s, "failures": session.failures[:10]})
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, {"facts": facts, "details": details}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nbqc" / "__init__.py").is_file():
        print(f"error: no nbqc package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    refs = json.loads((BENCH / "refs.json").read_text())
    result, facts = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), refs)
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
