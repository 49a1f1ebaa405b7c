"""`tools/bench_pairs.py --check` recomputes a pairs file's summary."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(run_s, failed=0):
    """One side of a pair: run_s as given, the other metrics from it."""
    names = ("run_s", "setup_s", "reference_s", "solve_s", "peak_rss_mb")
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": run_s * (i + 1), "unit": "s"}
                        for i, name in enumerate(names)}}


def _pairs():
    parent = [0.30, 0.32, 0.31, 0.33]
    change = [0.28, 0.33, 0.29, 0.30]
    return [{"pair": i + 1, "workload": workload, "seed": 11 + i,
             "first": "parent" if i % 2 == 0 else "change",
             "parent": _side(p, failed=int(workload == "b" and i == 0)),
             "change": _side(c)}
            for workload in ("a", "b")
            for i, (p, c) in enumerate(zip(parent, change))]


def _check(path):
    return subprocess.run([sys.executable, str(TOOL), "--check", str(path)],
                          capture_output=True, text=True)


@pytest.fixture
def pairs_file(tmp_path):
    tool = _tool()
    pairs = _pairs()
    data = {"about": "synthetic", "pairs": pairs,
            "summary": tool.summarize(pairs, tool.end_to_end())}
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(data, indent=1))
    return path


def test_summary_is_the_quartiles_and_wins_of_the_pairs(pairs_file):
    entry = json.loads(pairs_file.read_text())["summary"]["b"]
    assert entry["pairs"] == 4 and entry["correct"] is True
    assert entry["failed"] == {"parent": 1, "change": 0}
    run_s = entry["run_s"]
    # linear interpolation: parent sorted 0.30 0.31 0.32 0.33
    assert run_s["parent"] == pytest.approx(
        {"q1": 0.3075, "median": 0.315, "q3": 0.3225}, abs=1e-15)
    assert run_s["change_lower_in"] == "3/4"
    assert run_s["change_higher_in"] == "1/4"
    assert run_s["relative_median_change"] == pytest.approx(0.295 / 0.315 - 1)
    assert run_s["parent_iqr"] == pytest.approx(0.015)
    assert run_s["median_shift_within_parent_iqr"] is False
    assert run_s["bound"] == 0.25 and run_s["within_bound"] is True


def test_check_accepts_its_own_summary(pairs_file):
    done = _check(pairs_file)
    assert done.returncode == 0, done.stdout
    assert "summary recomputed" in done.stdout


@pytest.mark.parametrize("edit", ["summary", "pair"])
def test_check_fails_on_any_mismatch(pairs_file, edit):
    data = json.loads(pairs_file.read_text())
    if edit == "summary":
        data["summary"]["a"]["run_s"]["change_lower_in"] = "4/4"
    else:  # a pair that no longer gives the summary's quartiles
        data["pairs"][0]["change"]["metrics"]["run_s"]["value"] = 0.5
    pairs_file.write_text(json.dumps(data))
    done = _check(pairs_file)
    assert done.returncode == 1
    assert "summary.a.run_s" in done.stdout
