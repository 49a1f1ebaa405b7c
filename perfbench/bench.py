"""Measurement loops and metric tables of the benchmark.

Import after `run.locate_package()` has put the package on sys.path.
"""

import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads as W
from tracer import (
    COUNT,
    END,
    NAME,
    PARENT,
    START,
    TARGETS,
    Tracer,
    self_times,
    subtree_ids,
    write_spans,
)
from speed import SpeedProbe

OUT_DIR = Path(__file__).resolve().parent / "out"

# Setup and reference are millisecond-scale on most workloads, so they are
# also repeated on their own, in blocks before each full round: until
# SAMPLE_SHARE of the elapsed run went into these repeats, and at least
# SAMPLE_MIN_REPS times before the first round.
#
# Every timing is divided by the host's slowdown over its own interval, as
# measured by the speed probe (see speed.py), before the medians are taken.
SAMPLE_MIN_REPS = 5
SAMPLE_SHARE = 0.1
MIN_TRACED_ROUNDS = 2

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "reference_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "context.build_s": "s",
    "context.builds": "count",
    "mesh.build_s": "s",
    "decomposition.build_s": "s",
    "reference.solve_s": "s",
    "reference.self_s": "s",
    "reference.levels": "count",
    "reference.newton_iters": "count",
    "iteration.sweeps": "count",
    "iteration.sweep_ms_p50": "ms",
    "iteration.sweep_ms_p90": "ms",
    "iteration.self_s": "s",
    "resolvent.calls": "count",
    "resolvent.time_s": "s",
    "resolvent.self_s": "s",
    "newton.levels": "count",
    "newton.iters": "count",
    "newton.iters_per_level": "iters/level",
    "newton.max_iters_level": "count",
    "newton.time_s": "s",
    "newton.us_per_iter": "us",
    "newton.self_s": "s",
    "newton.extra_residuals": "count",
    "residual.calls": "count",
    "residual.time_s": "s",
    "residual.us_per_call": "us",
    "linear.calls": "count",
    "linear.time_s": "s",
    "linear.cg_iters": "count",
    "linear.cg_iters_per_call": "iters/call",
    "monitor.time_s": "s",
    "monitor.h_norm_calls": "count",
    "monitor.k_functional_calls": "count",
    "monitor.primal_F_calls": "count",
    "trace.overhead": "ratio",
}


def median(values):
    return float(statistics.median(values))


def percentile(values, pct):
    if not values:
        return 0.0
    return float(np.percentile(values, pct))


def timed_round(w, pairs, tracer):
    tic = time.perf_counter()
    rnd = W.run_round(w, pairs, tracer)
    rnd.wall_s = time.perf_counter() - tic
    return rnd


def fits(start, seconds, *last):
    """Whether rounds as long as the `last` ones still end within the run."""
    return time.perf_counter() - start + sum(r.wall_s for r in last) <= seconds


# ---------------------------------------------------------------- untraced


def measure_end_to_end(w, pairs, seconds):
    """Untraced run: returns (metrics, attempted, failed, problems)."""
    with SpeedProbe() as probe:
        samples, rounds, problems = sample_end_to_end(w, pairs, seconds)

    def at_nominal_speed(t0, *durations):
        """The phases starting at t0, each divided by its slowdown."""
        out = []
        for d in durations:
            out.append(d / probe.slowdown(t0, t0 + d))
            t0 += d
        return out

    setup_s, reference_s = [], []
    for t0, setup, reference in samples:
        s, r = at_nominal_speed(t0, setup, reference)
        setup_s.append(s)
        reference_s.append(r)
    run_s, solve_s = [], []
    for t0, rnd in rounds:
        s, r, v = at_nominal_speed(t0, rnd.setup_s, rnd.reference_s, rnd.solve_s)
        setup_s.append(s)
        reference_s.append(r)
        solve_s.append(v)
        run_s.append(s + r + v)
        problems += rnd.problems
    rounds = [rnd for _, rnd in rounds]
    if any(rnd.outcome != rounds[0].outcome for rnd in rounds):
        problems.append("scheme or pair outcome differs between repeats")

    metrics = {
        "run_s": median(run_s),
        "setup_s": median(setup_s),
        "reference_s": median(reference_s),
        "solve_s": median(solve_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{w.name}: {len(setup_s)} setups, {len(reference_s)} references, "
          f"{len(rounds)} rounds taking "
          + " ".join(f"{r.solve_s:.4f}" for r in rounds) + " s to solve; "
          f"probe median {1e3 * median(probe.times):.4f} ms over "
          f"{len(probe.times)} samples")
    return metrics, attempted, failed, problems


def sample_end_to_end(w, pairs, seconds):
    """The untraced run's repeats, with the perf_counter at which each began.

    Returns ([(start, setup_s, reference_s)], [(start, Round)], problems).
    """
    start = time.perf_counter()
    problems, samples, rounds = [], [], []
    first_u_h = None
    sampling = 0.0  # time spent in the setup/reference repeats
    repeat = True
    while True:
        tic = time.perf_counter()
        if repeat and (len(samples) < SAMPLE_MIN_REPS
                       or sampling < SAMPLE_SHARE * (tic - start)):
            rnd = W.Round()
            try:
                ctx, exact, u_h = W.setup_and_reference(w, W.NULL_TRACER, rnd)
            except W.OPERATION_ERRORS as exc:
                problems.append(f"setup/reference: {type(exc).__name__}: {exc}")
                repeat = False
                continue
            samples.append((tic, rnd.setup_s, rnd.reference_s))
            if first_u_h is None:
                first_u_h = u_h
                problems += W.reference_gate(w, ctx, exact, u_h)
            elif not np.array_equal(u_h, first_u_h):
                problems.append("reference differs between repeats")
            sampling += time.perf_counter() - tic
        elif not rounds or fits(start, seconds, rounds[-1][1]):
            rounds.append((tic, timed_round(w, pairs, W.NULL_TRACER)))
        else:
            break
    return samples, rounds, problems


# ------------------------------------------------------------------ traced


# Counts that must repeat exactly in every traced round at one seed.
COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u == "count")


def layer_metrics(tracer, rnd):
    """Per-layer metrics of one traced round, plus problems found.

    Only spans under the round's setup, reference and solve roots count.
    A metric whose layer's entry point was absent is left out.
    """
    spans = tracer.spans
    roots = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] == -1 and rec[NAME] in ("setup", "reference", "solve"):
            roots[rec[NAME]] = i
    ids = subtree_ids(spans, roots.values())
    selfs = self_times(spans, ids)

    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counted = defaultdict(int)
    max_count = defaultdict(int)
    extra_residuals = 0
    for i in ids:
        name, start, end, parent, count = spans[i]
        calls[name] += 1
        total[name] += end - start
        self_s[name] += selfs[i]
        counted[name] += count
        max_count[name] = max(max_count[name], count)
        if name == "residual" and spans[parent][NAME] == "newton":
            extra_residuals += 1

    absent = {name for module, attr, name in TARGETS
              if f"{module}.{attr}" in tracer.absent}
    out = {}

    def put(metric, value, *needs):
        if not absent.intersection(needs):
            out[metric] = value if isinstance(value, int) else float(value)

    def per(num, den):
        return num / den if den else 0.0

    monitors = ("monitor.h_norm", "monitor.k_functional", "monitor.primal_F")
    linear = ("linear.banded", "linear.cg")
    put("context.build_s", total["context"])
    put("context.builds", calls["context"], "context")
    put("mesh.build_s", total["mesh"])
    put("decomposition.build_s", total["decomposition"])
    put("reference.solve_s", total["reference"])
    put("reference.self_s", self_s["reference"] + self_s["reference.level"],
        "reference.level", "residual", *linear)
    put("reference.levels", calls["reference.level"], "reference.level")
    put("reference.newton_iters", counted["reference.level"], "reference.level")
    put("iteration.sweeps", rnd.sweeps)
    put("iteration.sweep_ms_p50", percentile(rnd.sweep_ms, 50))
    put("iteration.sweep_ms_p90", percentile(rnd.sweep_ms, 90))
    put("iteration.self_s", self_s["iteration"], "resolvent", "context", *monitors)
    put("resolvent.calls", calls["resolvent"], "resolvent")
    put("resolvent.time_s", total["resolvent"], "resolvent")
    put("resolvent.self_s", self_s["resolvent"], "resolvent", "newton")
    levels, iters = calls["newton"], counted["newton"]
    put("newton.levels", levels, "newton")
    put("newton.iters", iters, "newton")
    put("newton.iters_per_level", per(iters, levels), "newton")
    put("newton.max_iters_level", max_count["newton"], "newton")
    put("newton.time_s", total["newton"], "newton")
    put("newton.us_per_iter", 1e6 * per(total["newton"], iters), "newton")
    put("newton.self_s", self_s["newton"], "newton", "residual", *linear)
    put("newton.extra_residuals", extra_residuals - levels - iters,
        "newton", "residual")
    put("residual.calls", calls["residual"], "residual")
    put("residual.time_s", total["residual"], "residual")
    put("residual.us_per_call", 1e6 * per(total["residual"], calls["residual"]),
        "residual")
    put("linear.calls", sum(calls[n] for n in linear), *linear)
    put("linear.time_s", sum(total[n] for n in linear), *linear)
    put("linear.cg_iters", counted["linear.cg"], "linear.cg")
    put("linear.cg_iters_per_call", per(counted["linear.cg"], calls["linear.cg"]),
        "linear.cg")
    put("monitor.time_s", sum(total[n] for n in monitors), *monitors)
    put("monitor.h_norm_calls", calls["monitor.h_norm"], "monitor.h_norm")
    put("monitor.k_functional_calls", calls["monitor.k_functional"],
        "monitor.k_functional")
    put("monitor.primal_F_calls", calls["monitor.primal_F"], "monitor.primal_F")

    # The self times of every span under the reference and solve roots
    # must add up to those roots' durations, or the span tree is broken.
    problems = []
    timed = [roots[k] for k in ("reference", "solve") if k in roots]
    wall = sum(spans[i][END] - spans[i][START] for i in timed)
    below = subtree_ids(spans, timed)
    attributed = sum(selfs[i] for i in below)
    if abs(attributed - wall) > 1e-9 * max(wall, 1.0):
        problems.append(f"layer self times sum to {attributed:.9f} s, "
                        f"traced reference+solve took {wall:.9f} s")
    layers = defaultdict(float)
    for i in below:
        layers[spans[i][NAME].split(".")[0]] += selfs[i]
    breakdown = ", ".join(f"{k} {v:.4f}" for k, v in sorted(layers.items()))
    return out, problems, f"self s: {breakdown}; sum {attributed:.4f} of {wall:.4f}"


def measure_layers(w, pairs, seconds):
    """Traced run: untraced and traced rounds in turn."""
    start = time.perf_counter()
    plain, traced, per_round, problems = [], [], [], []
    while len(traced) < MIN_TRACED_ROUNDS or fits(start, seconds, plain[-1],
                                                  traced[-1]):
        plain.append(timed_round(w, pairs, W.NULL_TRACER))
        tracer = Tracer()
        with tracer.installed():
            rnd = timed_round(w, pairs, tracer)
        metrics, found, breakdown = layer_metrics(tracer, rnd)
        traced.append(rnd)
        per_round.append(metrics)
        problems += plain[-1].problems + rnd.problems + found
        print(f"{w.name} traced round {len(per_round)}: {breakdown}")
        if tracer.absent:
            print(f"absent layers: {', '.join(tracer.absent)}")
        if len(traced) == 1:
            write_spans(OUT_DIR / f"spans_{w.name}.csv", tracer.spans)

    rounds = plain + traced
    if any(rnd.outcome != rounds[0].outcome for rnd in rounds):
        problems.append("scheme or pair outcome differs between repeats")
    for name in COUNT_METRICS:
        if len({m.get(name) for m in per_round}) > 1:
            problems.append(f"count {name} differs between traced rounds")

    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        metrics[name] = values[0] if name in COUNT_METRICS else median(values)
    metrics["trace.overhead"] = (median([r.run_s for r in traced])
                                 / median([r.run_s for r in plain]))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return metrics, attempted, failed, problems
