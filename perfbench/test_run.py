"""The benchmark's own tests: ``python3 -m pytest perfbench``.

They run the command on a tiny corpus per workload and check the shape of
its output, never its timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
from checks import GateError, check_file, replays  # noqa: E402
from lrfix import Repair  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def output(workload: str, trace: int) -> tuple[dict, dict]:
    p = bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--files", "4")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    report = next(json.loads(line[len("report: "):]) for line in lines if line.startswith("report: "))
    return report, json.loads(lines[-1])


def test_spec_matches_the_command():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: run.E2E_UNITS[k] for k in run.GATED}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: u for k, u in run.LAYER_UNITS.items() if k not in run.LAYER_SOMETIMES_ZERO}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    report, final = output(workload, trace)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] == 4
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in final["metrics"].values())

    assert {k: v["unit"] for k, v in report["end_to_end"].items()} == run.E2E_UNITS
    if trace:
        assert {k: v["unit"] for k, v in report["layers"].items()} == run.LAYER_UNITS
        assert (HERE / "out" / f"{workload}-seed3-locations.tsv").exists()
    assert report["seed"] == 3 and report["timeout_s"] == 0.5
    assert report["nproc"] >= 1 and report["python"].count(".") == 2


def test_gate_rejects_tampered_reports():
    b = run.Bench("typo", 1, 1, 1, False)
    b.setup()
    (src,), _ = b.corpus(1, "main")
    toks, result, *_ = b.run_file(src)
    assert check_file(b.table, toks, result, b.params) > 0
    rep = next(r for r in result.reports if r.success)
    good = rep.sequences
    rep.sequences = good + [[Repair("delete")] * (rep.cost + 1)]
    with pytest.raises(GateError, match="cost"):
        check_file(b.table, toks, result, b.params)
    rep.sequences = good
    rep.applied = good[-1] + [Repair("shift")]
    with pytest.raises(GateError, match="applied"):
        check_file(b.table, toks, result, b.params)


def test_replay_needs_every_edit_to_shift():
    b = run.Bench("clean", 1, 1, 1, False)
    b.setup()
    types = ["int", "ID", "ID", ";", "$"]  # int x y ;
    assert replays(b.table, [0], types, 0, [Repair("shift"), Repair("shift"), Repair("delete")], 3)
    assert not replays(b.table, [0], types, 0, [], 3)
    assert not replays(b.table, [0], types, 0, [Repair("insert", "else")], 3)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = bench("--workload", "clean", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
