"""Space-time splitting benchmark: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src/` directory next
to this one.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With `--trace 0` the metrics
are the end-to-end ones (medians over the run's repeats); with `--trace 1`
they are the per-layer split of a traced round.  See README.md.
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def locate_package():
    """Put the checkout's `src/` first on sys.path, or exit if it is missing."""
    src = REPO / "src"
    if not (src / "stsplit" / "__init__.py").is_file():
        sys.exit(f"error: no stsplit package under {src}")
    sys.path.insert(0, str(src))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    locate_package()
    import bench
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(W.WORKLOADS)}")
    w = W.WORKLOADS[args.workload]
    pairs = W.make_pairs(w, args.seed)

    if args.trace:
        metrics, attempted, failed, problems = bench.measure_layers(
            w, pairs, args.seconds)
        units = bench.PER_LAYER_UNITS
    else:
        metrics, attempted, failed, problems = bench.measure_end_to_end(
            w, pairs, args.seconds)
        units = bench.END_TO_END_UNITS

    for problem in problems:
        print(f"FAIL {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
