"""Smoke tests of the benchmark at tiny sizes: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout.splitlines()[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(tmp_path, "bnp_fit", 0)
    assert out.returncode != 0 and out.stdout == ""


def test_traced_pass_leaves_rocinfer_unpatched(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import importlib

    import run
    import spans

    modules = [importlib.import_module("rocinfer." + m)
               for m in spans.CONSUMERS + tuple(spans.INTRA_MODULE)]
    before = [dict(vars(m)) for m in modules]
    client = run.Client("freq_resample", 7, True, str(tmp_path))
    tracer = spans.Tracer()
    passed = client.one_pass(tracer)
    assert not any(passed["problems"].values())
    assert {s[0] for s in tracer.spans} >= {"cli.run", "streams.map", "summaries.ecdf"}
    assert [dict(vars(m)) for m in modules] == before


def test_timed_pass_stops_its_sampler(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import signal

    import run

    client = run.Client("bnp_curves", 7, True, str(tmp_path))
    handler = signal.getsignal(signal.SIGALRM)
    passed = client.one_pass()
    assert not any(passed["problems"].values())
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < passed["ref_wall"] and 0 < passed["wall"]
