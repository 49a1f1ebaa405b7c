"""Dump the benchmark workloads' outputs, and compare two dumps bit for bit.

    python3 tools/compare_outputs.py dump OUT.npz [--seed N]
    python3 tools/compare_outputs.py compare A.npz B.npz

`dump` runs the four workloads of `perfbench/workloads.py` once each, with
the package from the `src/` directory of the checkout this script sits in,
and saves every output a change could move: the monolithic reference, the
final iterate `u`, the subdomain fields, every trace column except the
wall times, and the outputs of the seeded resolvent pairs.  `--seed`
(default 1) seeds the pairs, as `perfbench/run.py --seed` does.

`compare` prints, for each array, "identical" when the two dumps hold the
same bytes, or else the largest relative difference, and exits 1 if any
array differs or is missing from one of them.  Dump a checkout before and
after a change, then compare the two files.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent

# the trace columns that a run determines; wall_ms is a timing
_TRACE_COLUMNS = ("sweep", "err_H", "err_k_total", "err_k", "pr_v_norm",
                  "pr_w_norm", "v0_norm", "w0_norm")


def workload_outputs(seed):
    """{name: array} of every workload's outputs, keys "<workload>.<output>"."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    import workloads as W
    from stsplit.iteration import SchemeConfig, run_scheme
    from stsplit.resolvent import ResolventConfig, resolvent_solve

    out = {}
    for name, w in W.WORKLOADS.items():
        ctx, _exact, u_h = W.setup_and_reference(w, W.NULL_TRACER, W.Round())
        out[f"{name}.reference"] = u_h
        if w.seeded:
            out[f"{name}.pair_outputs"] = np.array([
                resolvent_solve(ctx, ell, g, ResolventConfig(s=s))
                for s, ell, g1, g2 in W.make_pairs(w, seed) for g in (g1, g2)])
            continue
        cfg = SchemeConfig(scheme=w.scheme, s=w.s, max_sweeps=w.sweeps,
                           stop_tol=0.0)
        result = run_scheme(ctx, cfg, u_ref=u_h)
        out[f"{name}.u"] = result.u
        out[f"{name}.subdomain_fields"] = np.array(result.subdomain_fields)
        out[f"{name}.sweeps"] = np.array(result.sweeps)
        out[f"{name}.converged"] = np.array(result.converged)
        for column in _TRACE_COLUMNS:  # None, a monitor not run, as nan
            out[f"{name}.trace.{column}"] = np.array(
                getattr(result.trace, column), dtype=float)
    return out


def max_relative_difference(a, b):
    """Largest |a - b| / max(|a|, |b|) over the entries; inf where exactly
    one of a pair is nan."""
    a, b = a.astype(float), b.astype(float)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    if np.any(nan_a != nan_b):
        return np.inf
    a, b = a[~nan_a], b[~nan_b]
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return float(rel.max(initial=0.0))


def compare(path_a, path_b):
    """Print one line per array; return the number of arrays that differ."""
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            line = f"only in {path_a if key in a else path_b}"
        elif a[key].shape != b[key].shape:
            line = f"shape {a[key].shape} against {b[key].shape}"
        elif a[key].dtype == b[key].dtype and a[key].tobytes() == b[key].tobytes():
            print(f"{key}: identical")
            continue
        else:
            line = (f"max relative difference "
                    f"{max_relative_difference(a[key], b[key]):.3e}")
        differ += 1
        print(f"{key}: {line}")
    print(f"{len(a.keys() | b.keys()) - differ} identical, {differ} differ")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    dump = commands.add_parser("dump", help="run the workloads, save outputs")
    dump.add_argument("out")
    dump.add_argument("--seed", type=int, default=1)
    cmp = commands.add_parser("compare", help="compare two dumps")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        np.savez(args.out, **workload_outputs(args.seed))
        return 0
    return 1 if compare(args.a, args.b) else 0


if __name__ == "__main__":
    sys.exit(main())
