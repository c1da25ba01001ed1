#!/usr/bin/env python3
"""Record refs.json: the outputs every benchmark operation is checked against.

Run from the repository root at the commit whose behaviour is the
reference:

    python3 perfbench/record_refs.py

It picks the reference seeds, decodes every decode job at each of them
and runs the CLI pass on every code and cost point (about 25 minutes on a
2-core Xeon). The route entry keeps the number of rows that
fail the replay against H, as the most the benchmark will accept.

With early stop, the q8 sweep's work depends on its frames: over seeds its
total iteration count has an interquartile range of 15% of the median.
So the reference seeds are those whose sweep takes exactly the median
total: every seed then does the same decoder work, frames/s compares
across seeds and every traced call count repeats exactly. The q64 frame
always runs one iteration.
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parents[1] / "src")]

import ops  # noqa: E402
from workloads import CODES, COST_POINTS, ROOT, WORKLOADS, setup  # noqa: E402

SEEDS = 16
HELD_OUT = 15  # index of the seed never run while developing a change
PILOT = 49  # candidate seeds whose median sets the iteration total
BATCH = 64

_state = None


def _init_worker() -> None:
    global _state
    _state = setup(WORKLOADS["sim-q8"])


def _sweep(seed: int) -> list:
    return ops.decode_direct(WORKLOADS["sim-q8"].decode, _state, seed)[1]


def record_cli(workdir: str, labels=CODES, points=COST_POINTS) -> dict:
    """The CLI references: construct, verify and route of every code,
    cost at every design point."""
    refs = {}
    files = ops.CodeFiles(workdir)
    for label in labels:
        for cmd, op in ops.CLI_COMMANDS.items():
            refs[f"{cmd}:{label}"] = op(label, files)[1]
    for point in points:
        refs[f"cost:{point}"] = ops.cost_call(point)[1]
    return refs


def main() -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    refs = {"commit": commit, "decode": {}}
    q8, q64 = WORKLOADS["sim-q8"], WORKLOADS["decode-q64"]
    with multiprocessing.get_context("spawn").Pool(2, _init_worker) as pool:
        rows = dict(enumerate(pool.map(_sweep, range(PILOT))))
        target = statistics.median(sum(r[5] for r in v) for v in rows.values())
        seeds = []
        while len(seeds) < SEEDS:
            batch = range(len(rows), len(rows) + BATCH)
            rows.update(zip(batch, pool.map(_sweep, batch)))
            seeds = [s for s in sorted(rows) if sum(r[5] for r in rows[s]) == target][:SEEDS]
    print("seeds", seeds, file=sys.stderr)
    refs.update(seeds=seeds, held_out=HELD_OUT, iterations=target)
    refs["decode"][q8.decode.ref] = {str(s): rows[s] for s in seeds}
    st = setup(q64)
    refs["decode"][q64.decode.ref] = {
        str(s): ops.decode_direct(q64.decode, st, s)[1] for s in seeds
    }
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        refs["cli"] = record_cli(workdir)
    out = Path(__file__).resolve().parent / "refs.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
