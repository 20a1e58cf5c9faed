"""Smoke test of the benchmark itself: every workload at a tiny size.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
and that the oracles can fail: a wrong expected answer, a negative control
that passes, and a wrong tree size each raise the failed count.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

SPEC = json.loads(bench.SPEC.read_text())

# Expected pair counts of the exhaustive family at these bounds.
TINY = {
    "pingpong": {
        "runs": (("bs23", 1, 1, 1, 2754), ("gbs2", 1, 1, 1, 54)),
        "control": ("bs23", 1, 1, 1),
    },
    "normest": {"runs": (("gbs2", 2), ("bs23", 3)), "m": (4, 9)},
    "queries": {
        "repeat": 1,
        "moved": 1,
        "tail": 1,
        "tail_k": 2,
        "word_edges": 3,
        "tree_radius": 2,
    },
}


def run_tiny(workload, trace=False, sizes=TINY):
    return bench.run(workload, 7, 0.0, trace, sizes, setup_runs=1)


@pytest.fixture(autouse=True)
def trace_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "TRACE_DIR", tmp_path)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted(workload, trace):
    report, result = run_tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert report["kernel_backend"] == "python"
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in want)
    for m in want:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"], m["name"]
        assert isinstance(metric["value"], float), m["name"]
        if not trace:
            assert metric["value"] > 0, m["name"]
    if trace:
        assert Path(bench.TRACE_DIR, Path(report["trace_file"]).name).is_file()


def test_wrong_expected_pairs_fail():
    runs = tuple(spec[:4] + (spec[4] + 1,)
                 for spec in TINY["pingpong"]["runs"])
    sizes = {**TINY, "pingpong": {**TINY["pingpong"], "runs": runs}}
    report, result = run_tiny("pingpong", sizes=sizes)
    assert not result["correct"]
    assert result["failed"] == 2
    assert report["fail_ratio"]["value"] > 0


def test_passing_negative_control_fails(monkeypatch):
    bench._import_gbs()
    from gbs import pingpong
    monkeypatch.setattr(pingpong, "make_negative_control", lambda data: data)
    report, result = run_tiny("pingpong")
    assert result["failed"] == 1
    assert set(report["failures"]) == {
        "api.negative_control: negative control passed"}


def test_wrong_tree_size_fails(monkeypatch):
    real = bench.tree_ball_size
    monkeypatch.setattr(bench, "tree_ball_size", lambda *a: real(*a) + 1)
    report, result = run_tiny("queries")
    assert result["failed"] == len(bench.FIXTURES_OF["queries"])
    assert all(f.startswith("cli.tree:") for f in report["failures"])


def test_tree_ball_size_oracle():
    bench._import_gbs()
    group = bench.load_group("bs23")
    # BS(2,3): every vertex has degree 5, so 1 + 5 + 5*4 + 5*16.
    assert bench.tree_ball_size(group.graph, group.base, 3) == 106
