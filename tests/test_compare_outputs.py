"""tools/compare_outputs.py: a dump compares equal to itself and names
every array that differs."""

import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def _compare(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "compare", str(a),
                           str(b)], capture_output=True, text=True)


def test_compare_names_each_array_that_differs(tmp_path):
    u = np.linspace(-1.0, 1.0, 7)
    trace = np.array([1.0, np.nan, 0.5])  # nan: a monitor not run
    np.savez(tmp_path / "a.npz", u=u, trace=trace, sweeps=np.array(3))
    np.savez(tmp_path / "b.npz", u=u * (1.0 + 2.0**-52), trace=trace,
             shape=np.zeros(2))

    same = _compare(tmp_path / "a.npz", tmp_path / "a.npz")
    assert same.returncode == 0
    assert same.stdout.splitlines() == ["sweeps: identical",
                                        "trace: identical", "u: identical",
                                        "3 identical, 0 differ"]

    differ = _compare(tmp_path / "a.npz", tmp_path / "b.npz")
    assert differ.returncode == 1
    lines = dict(line.split(": ", 1) for line in differ.stdout.splitlines()[:-1])
    assert lines["trace"] == "identical"
    assert lines["u"].startswith("max relative difference 2.2")
    assert lines["sweeps"] == f"only in {tmp_path / 'a.npz'}"
    assert lines["shape"] == f"only in {tmp_path / 'b.npz'}"
    assert differ.stdout.splitlines()[-1] == "1 identical, 3 differ"
