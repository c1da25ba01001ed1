"""Self-test of the benchmark at a tiny length.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import ops  # noqa: E402
import record_refs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_spec  # noqa: E402

REFS = json.loads((BENCH / "refs.json").read_text())
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_metrics_match_benchmark_json(trace, kind):
    result, facts = run.run_workload(WORKLOADS["sim-q8"], 0, 1, trace, REFS)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(kind)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert facts["facts"]["src_lines"] > 0
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["decode.iterations"] == REFS["iterations"]  # one traced round
        assert m["decode.check_node_min_max.calls"] == m["decode.process_row.calls"] > 0
        assert 0 <= m["trace.self_sum_s"] <= m["trace.wall_s"]


def test_recorder_reproduces_refs(tmp_path):
    """The recorder's CLI and decode steps give the committed references,
    here on the small codes and the first seed."""
    labels, points = WORKLOADS["sim-q8"].codes, WORKLOADS["sim-q8"].cost_points
    recorded = record_refs.record_cli(str(tmp_path), labels, points)
    assert recorded == {k: REFS["cli"][k] for k in recorded}
    assert len(recorded) == 3 * len(labels) + len(points)
    record_refs._init_worker()
    seed = REFS["seeds"][0]
    assert record_refs._sweep(seed) == REFS["decode"]["q8-sweep"][str(seed)]


def test_wrong_reference_counts_as_failed():
    refs = copy.deepcopy(REFS)
    refs["decode"]["q8-sweep"][str(refs["seeds"][0])][0][2] += 1  # frame errors at 1 dB
    refs["cli"]["cost:q8"]["sha256"] = "0" * 64
    refs["cli"]["construct:q8-c1"]["h_sha256"] = "0" * 64  # H is not the recorded one
    refs["cli"]["route:q8-c2"]["mismatch_rows"] -= 1  # routing got worse
    result, facts = run.run_workload(WORKLOADS["sim-q8"], 0, 1, False, refs)
    assert not result["correct"]
    runs = {k: len(v) for k, v in facts["details"]["samples"].items()}
    wrong = ("decode:q8-sweep", "cost:q8", "construct:q8-c1", "route:q8-c2")
    assert result["failed"] == sum(runs[k] for k in wrong)
    assert result["attempted"] == sum(runs.values())


@pytest.mark.parametrize(
    "spec",
    [
        ("class2", 2, 1, 2, 4),
        ("class2", 3, 1, 2, 8),
        ("class2", 3, 1, 3, 8),
        ("class1", 3, 1, 7, 3, 7),
        ("class1", 4, 3, 5, 3, 15),
    ],
)
def test_replay_agrees_with_schedule_driven_decode(spec):
    """The replay fails a row exactly when the schedule-driven decoder,
    which asserts the same wiring, refuses the schedule."""
    import numpy as np
    from nbqc import codefile
    from nbqc.construct import build_code
    from nbqc.decode import DecoderConfig, hard_channel
    from nbqc.shuffle import route_schedule, schedule_driven_decode

    code_spec = make_spec(spec)
    h, _, _, fld = build_code(code_spec)
    report = route_schedule(code_spec).render()
    code = ops.read_code(codefile.format_code(code_spec, h, fld))
    bad = ops.replay_mismatch_rows(code, report)
    try:
        channel = hard_channel(np.zeros(h.cols, dtype=int), fld)
        schedule_driven_decode(code_spec, h, channel, fld, DecoderConfig(max_iter=1))
        refused = False
    except AssertionError:
        refused = True
    assert (bad > 0) == refused


def test_tracer_recursion_and_missing_names():
    from nbqc.shuffle import BenesNetwork

    tracer = Tracer(["shuffle.simulate", "shuffle.BenesNetwork.route", "shuffle.no_such_name"])
    with tracer:
        BenesNetwork(16).route(list(range(15, -1, -1)))
    summary = tracer.summary()
    assert summary["shuffle.no_such_name"]["calls"] == 0
    assert summary["shuffle.simulate"]["calls"] > 1  # recursion is traced
    route = summary["shuffle.BenesNetwork.route"]
    self_sum = sum(rec["self_s"] for rec in summary.values())
    assert all(rec["self_s"] >= 0 for rec in summary.values())
    assert self_sum == pytest.approx(route["total_s"], rel=1e-9, abs=1e-12)
    assert summary["shuffle.simulate"]["total_s"] <= route["total_s"]
    # uninstalled: the package's own function is back
    from nbqc import shuffle

    assert not hasattr(shuffle.simulate, "__wrapped__")
