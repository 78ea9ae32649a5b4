"""Self-tests of the benchmark.

    python3 -m pytest benchmark/test_benchmark.py -q

They check that the tracer changes no result, that every metric named
in BENCHMARK.json is emitted with its unit, that the ladder's closed
forms hold at its smallest rungs, and that each workload's judge
classifies results as documented.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FIXTURE = str(ROOT / "fixtures" / "triangular.json")


@pytest.fixture(scope="module")
def am():
    return bw.import_amaldup()


def _results(am):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 4)) @ rng.standard_normal((4, 6))
    rank, null = am.linalg.rank_nullspace(m)
    span = am.linalg.Subspace.from_spanning([m[0], m[1], m[0] + m[1]])
    a, f, act, recipe = am.sampling.random_triple(np.random.default_rng(3))
    report = am.derivations.cohomology(am.algebra.duplicate(a, f, act), 1)
    code, text = am.cli.run_command(["derivations", FIXTURE, "--format", "json"])
    return rank, null.basis, span.basis, a.mult, recipe, report, code, text


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    return x == y


def test_wrappers_return_what_the_unwrapped_calls_return(am):
    plain = _results(am)
    originals = (am.linalg.rank_nullspace, am.cli.run_command,
                 am.linalg.Subspace.__dict__["from_spanning"])
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert am.linalg.rank_nullspace is not originals[0]
        assert am.derivations.rank_nullspace is am.linalg.rank_nullspace
        traced = _results(am)
    finally:
        tracer.uninstall()
    assert all(_same(x, y) for x, y in zip(plain, traced))
    assert (am.linalg.rank_nullspace, am.cli.run_command,
            am.linalg.Subspace.__dict__["from_spanning"]) == originals
    stats = bench_trace.aggregate(tracer.take())
    assert stats["linalg.rank_nullspace"]["calls"] >= 1
    assert stats["linalg.from_spanning"]["calls"] >= 1
    assert stats["cli.cmd_derivations"]["calls"] == 1


def test_self_time_subtracts_children():
    spans = [("outer", -1, 0.0, 10.0, None), ("inner", 0, 1.0, 4.0, None),
             ("inner", 1, 2.0, 3.0, None), ("leaf", 0, 5.0, 6.0, None)]
    stats = bench_trace.aggregate(spans)
    assert stats["outer"]["self_s"] == pytest.approx(6.0)
    assert stats["inner"]["calls"] == 2
    assert stats["inner"]["total_s"] == pytest.approx(3.0)  # outermost call only
    assert stats["inner"]["self_s"] == pytest.approx(3.0)


def test_spec_names_and_units_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench_trace.metric_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(bw.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "query", "--seed", "0",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    counted = 1 if trace else run.COUNTED_PASSES["query"]
    assert result["correct"] is True and result["attempted"] == 264 * counted
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["cli.amenability.p50_ms"]["value"] > 0
        assert result["metrics"]["bundles.parse_bundle.calls"]["value"] == 264


@pytest.mark.parametrize("n", [8, 10])
def test_closed_forms_hold_at_the_smallest_rungs(am, n):
    ladder = bw.Ladder(am, ROOT, None)
    [(label, thunk, check)] = ladder.ops(ladder.tensors(0, 0, (n,)))
    dims = thunk()
    outcome = check(dims)
    assert (outcome.units, outcome.failures, outcome.wrong) == (6, [], [])
    assert dims["lm-direct"] == n
    assert dims["z1-direct.level1"] == (n - 2 if n % 4 == 0 else 0)


def test_ladder_check_flags_a_wrong_dimension():
    right = bw.ladder_expected(8)
    assert bw.Ladder.check(8, right).wrong == []
    off = dict(right, **{"lm-block": 7})
    assert bw.Ladder.check(8, off).failures == ["lm-block: dimension 7, closed form 8"]
    assert len(bw.Ladder.check(8, ValueError("x")).failures) == 6


def _report(rows, code):
    return code, json.dumps({"results": [
        {"id": i, "status": s, "defect": None, "value": v, "witness": None}
        for i, s, v in rows]})


def test_query_check_classifies_pass_fail_row_and_exception():
    ok = bw.Query.check("validate", 3, _report([("x", "pass", None)], 0))
    fail = bw.Query.check("multipliers", 3, _report([("simplified-form", "fail", None)], 1))
    exc = bw.Query.check("spectrum", 3, RuntimeError("boom"))
    bad = bw.Query.check("spectrum", 3, (0, "not json"))
    dup = bw.Query.check("duplicate", 3, (0, json.dumps({"dim": 4})))
    assert (ok.failures, ok.wrong) == ([], [])
    assert fail.failures == ["fail rows ['simplified-form']"] and not fail.wrong
    assert exc.failures == ["uncaught RuntimeError: boom"] and not exc.wrong
    assert bad.wrong and dup.wrong


def test_audit_check_requires_every_row_to_pass_with_its_trials():
    audit = bw.Audit(None, ROOT, None)
    rows = [(rid, "pass", f"{low} trials") for rid, (low, _) in audit.expected.items()]
    assert audit.check(_report(rows, 0)).wrong == []
    assert audit.check(_report(rows, 0)).units == 21
    short = [(rows[0][0], "pass", "49 trials")] + rows[1:]
    assert audit.check(_report(short, 0)).wrong
    failing = [(rows[0][0], "fail", rows[0][2])] + rows[1:]
    assert audit.check(_report(failing, 1)).failures == [f"{rows[0][0]}: fail"]
    assert audit.check(_report(rows[1:], 0)).wrong
