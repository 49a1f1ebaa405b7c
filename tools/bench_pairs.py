"""Alternated benchmark pairs of a parent revision and the checkout, and
the check of a pairs file's summary.

    python3 tools/bench_pairs.py --pr N --parent REV [--pairs 10]
        [--seconds 30] [--first-seed 11] [--parent-dir DIR] [--about TEXT]
    python3 tools/bench_pairs.py --check FILE

The first form runs `perfbench/run.py --trace 0` on each workload of
BENCHMARK.json, `--pairs` times per side, once in a checkout of REV and
once in the checkout this script sits in.  REV is checked out into a
temporary `git worktree`, removed on exit, unless `--parent-dir` names an
existing checkout of it (one made by `git archive`, say), which is used as
it is.  Pair i runs at seed
`--first-seed` + i, and the side that runs first alternates: the parent at
odd seeds, the change at even ones.  A traced run per side and workload
(`--seed 1 --seconds 3 --trace 1`) gives the count metrics.  It writes
BENCH_<N>.json next to BENCHMARK.json with the keys about, parent_sha,
host, pairs_command, summary, traced_counts and pairs.

The summary gives per workload the number of pairs, whether every run was
correct, the failed operations per side, and per end-to-end metric: each
side's quartiles (q1, median, q3, by linear interpolation), the number of
pairs in which the change is lower and higher, the relative change of the
medians, the parent's interquartile range, whether the medians' shift lies
within it, and the metric's bound from BENCHMARK.json and whether the
change's median keeps within it.

`--check FILE` recomputes the summary from the file's pairs and
BENCHMARK.json's bounds and exits 1 on any difference, so a committed
claim can be recomputed from its own pairs.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def end_to_end():
    """{metric: (bound, better)} of BENCHMARK.json's end-to-end metrics."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs, metrics):
    """The summary of `pairs` for the end-to-end `metrics` (see the module
    docstring), by workload in the order of first appearance."""
    summary = {}
    for workload in dict.fromkeys(pair["workload"] for pair in pairs):
        runs = [pair for pair in pairs if pair["workload"] == workload]
        entry = {
            "pairs": len(runs),
            "correct": all(pair[side]["correct"] for pair in runs
                           for side in SIDES),
            "failed": {side: sum(pair[side]["failed"] for pair in runs)
                       for side in SIDES},
        }
        for name, (bound, better) in metrics.items():
            values = {side: [pair[side]["metrics"][name]["value"]
                             for pair in runs] for side in SIDES}
            parent, change = (quartiles(values[side]) for side in SIDES)
            lower = sum(c < p for p, c in zip(*values.values()))
            higher = sum(c > p for p, c in zip(*values.values()))
            relative = change["median"] / parent["median"] - 1.0
            iqr = parent["q3"] - parent["q1"]
            worse = relative if better == "lower" else -relative
            entry[name] = {
                "parent": parent,
                "change": change,
                "change_lower_in": f"{lower}/{len(runs)}",
                "change_higher_in": f"{higher}/{len(runs)}",
                "relative_median_change": relative,
                "parent_iqr": iqr,
                "median_shift_within_parent_iqr":
                    abs(change["median"] - parent["median"]) <= iqr,
                "bound": bound,
                "within_bound": worse <= bound,
            }
        summary[workload] = entry
    return summary


def differences(got, want, path="summary"):
    """The paths at which two JSON values differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}.{key}: missing" for key in want if key not in got]
        out += [f"{path}.{key}: not expected" for key in got
                if key not in want]
        for key in want:
            if key in got:
                out += differences(got[key], want[key], f"{path}.{key}")
        return out
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r}, recomputed {want!r}"]
    return []


def check(path):
    data = json.loads(Path(path).read_text())
    found = differences(data.get("summary"),
                        summarize(data["pairs"], end_to_end()))
    for line in found:
        print(line)
    print(f"{path}: {len(data['pairs'])} pairs, "
          f"{'summary differs' if found else 'summary recomputed'}")
    return 1 if found else 0


def run_once(root, workload, seed, seconds, trace):
    """The last line of perfbench/run.py's output in checkout `root`."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def measure(roots, workloads, n_pairs, seconds, first_seed):
    pairs = []
    for workload in workloads:
        for i in range(n_pairs):
            seed = first_seed + i
            first = "parent" if seed % 2 else "change"
            order = (first, *(side for side in SIDES if side != first))
            result = {side: run_once(roots[side], workload, seed, seconds, 0)
                      for side in order}
            pairs.append({"pair": i + 1, "workload": workload, "seed": seed,
                          "first": first,
                          **{side: result[side] for side in SIDES}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} run_s {result[side]['metrics']['run_s']['value']:.4f}"
                for side in SIDES), file=sys.stderr)
    return pairs


def traced_counts(roots, workloads):
    counts = {}
    for workload in workloads:
        metrics = {side: run_once(roots[side], workload, 1, 3, 1)["metrics"]
                   for side in SIDES}
        counts[workload] = {
            name: {side: metrics[side][name]["value"] for side in SIDES}
            for name, value in metrics["parent"].items()
            if value["unit"] == "count"}
    return counts


def git(*args):
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE")
    parser.add_argument("--pr", type=int)
    parser.add_argument("--parent", metavar="REV")
    parser.add_argument("--parent-dir", metavar="DIR")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--about", default="")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if args.pr is None or args.parent is None:
        parser.error("give --check FILE, or --pr and --parent")

    metrics = end_to_end()
    workloads = [w["name"] for w in json.loads(
        (REPO / "BENCHMARK.json").read_text())["workloads"]]
    sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    tmp = None
    if args.parent_dir:
        parent_root = Path(args.parent_dir).resolve()
    else:
        tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
        parent_root = tmp / "parent"
        git("worktree", "add", "--detach", str(parent_root), sha)
    try:
        roots = {"parent": parent_root, "change": REPO}
        pairs = measure(roots, workloads, args.pairs, args.seconds,
                        args.first_seed)
        counts = traced_counts(roots, workloads)
    finally:
        if tmp is not None:
            git("worktree", "remove", "--force", str(parent_root))
            shutil.rmtree(tmp, ignore_errors=True)

    data = {
        "about": args.about,
        "parent_sha": sha,
        "host": f"{platform.machine()}, {os.cpu_count()} vCPU, Python "
                f"{platform.python_version()}, NumPy {np.__version__}, "
                f"SciPy {scipy.__version__}",
        "pairs_command": (f"python3 perfbench/run.py --workload W --seed N "
                          f"--seconds {args.seconds:g} --trace 0"),
        "summary": summarize(pairs, metrics),
        "traced_counts": counts,
        "pairs": pairs,
    }
    out = REPO / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
