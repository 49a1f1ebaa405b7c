"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import run
import speed

run.locate_package()

import bench  # noqa: E402
import stsplit.iteration  # noqa: E402
import stsplit.reference  # noqa: E402
import stsplit.resolvent  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

TINY = {
    "as1d_shifted_q3": {"sweeps": 2},
    "as2d_q2": {"sweeps": 1},
    "pr1d_degenerate": {"sweeps": 2},
    "resolvent_pairs": {"pairs": 3},
}


def tiny(name):
    """Same problem, a few sweeps or pairs; the err_H bound is for the full run."""
    return dataclasses.replace(W.WORKLOADS[name], err_H_bound=np.inf, **TINY[name])


def pairs_of(w, seed=7):
    return W.make_pairs(w, seed)


def originals():
    return {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in T.TARGETS}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_tiny_workload_end_to_end(name, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    w = tiny(name)
    metrics, attempted, failed, problems = bench.measure_end_to_end(w, pairs_of(w), 0.01)
    assert problems == [] and failed == 0 and attempted >= 1
    assert set(metrics) == set(bench.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())

    before = originals()
    metrics, attempted, failed, problems = bench.measure_layers(w, pairs_of(w), 0.01)
    assert problems == [] and failed == 0
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    assert originals() == before  # every wrapper restored
    assert metrics["residual.calls"] > 0 and metrics["linear.calls"] > 0
    if w.seeded:
        assert metrics["resolvent.calls"] == 2 * w.pairs
        assert metrics["iteration.sweeps"] == 0
    else:
        assert metrics["iteration.sweeps"] == w.sweeps
        assert metrics["context.builds"] == (2 if w.scheme == "AS_shifted" else 1)
    if len(w.cells) == 2:
        assert metrics["linear.cg_iters"] > metrics["linear.calls"]
    assert (tmp_path / f"spans_{name}.csv").is_file()


def test_gate_flags_perturbed_reference(monkeypatch):
    w = tiny("pr1d_degenerate")
    rnd = W.Round()
    ctx, exact, u_h = W.setup_and_reference(w, W.NULL_TRACER, rnd)
    assert W.reference_gate(w, ctx, exact, u_h) == []
    assert W.reference_gate(w, ctx, exact, u_h + 1e-7)

    real = W.solve_monolithic
    monkeypatch.setattr(W, "solve_monolithic", lambda c: real(c) * (1.0 + 1e-6))
    bad = W.run_round(w, [], W.NULL_TRACER)
    assert bad.attempted == 1 and bad.failed == 1
    assert any("reference residual" in p for p in bad.problems)


def test_pair_gate_counts_failures_and_continues(monkeypatch):
    w = tiny("resolvent_pairs")
    # an expansive "resolvent" breaks the bound on every pair
    monkeypatch.setattr(W, "resolvent_solve", lambda ctx, ell, g, cfg: 3.0 * g)
    rnd = W.run_round(w, pairs_of(w), W.NULL_TRACER)
    assert rnd.attempted == 1 + w.pairs and rnd.failed == w.pairs


def test_untraced_run_installs_no_wrapper(monkeypatch):
    before = originals()
    seen = []
    real = stsplit.iteration.resolvent_solve

    def probe(*args, **kwargs):
        seen.append(originals() == before)
        return real(*args, **kwargs)

    monkeypatch.setattr(stsplit.iteration, "resolvent_solve", probe)
    before[("stsplit.iteration", "resolvent_solve")] = probe
    w = tiny("as1d_shifted_q3")
    bench.measure_end_to_end(w, [], 0.01)
    assert seen and all(seen)


def test_speed_probe_slowdown_window():
    probe = speed.SpeedProbe()
    assert probe.slowdown(0.0, 1.0) == 1.0  # no sample yet
    nominal = speed.NOMINAL_S
    probe.stamps = [0.1 * i for i in range(10)]
    probe.times = [nominal] * 5 + [2 * nominal] * 5
    assert probe.slowdown(0.0, 0.45) == pytest.approx(1.0)
    assert probe.slowdown(0.5, 0.95) == pytest.approx(2.0)
    # shorter than a probe period: the 4 probes nearest the middle
    assert probe.slowdown(0.44, 0.46) == pytest.approx(1.5)
    assert probe.slowdown(5.0, 5.1) == pytest.approx(2.0)


def test_speed_probe_stops_and_restores_affinity():
    before = os.sched_getaffinity(0)
    with speed.SpeedProbe() as probe:
        assert len(os.sched_getaffinity(0)) == 1
        while len(probe.times) < 2:
            speed.kernel()
    assert not probe._thread.is_alive()
    assert os.sched_getaffinity(0) == before


def test_absent_entry_point_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(T, "TARGETS", T.TARGETS + (("stsplit.resolvent", "gone", "gone"),))
    tr = T.Tracer()
    with tr.installed():
        rnd = W.run_round(tiny("pr1d_degenerate"), [], tr)
    assert tr.absent == ["stsplit.resolvent.gone"]
    assert not hasattr(stsplit.resolvent, "gone")

    # a layer whose entry point is gone drops its metrics instead of failing
    tr.absent = ["stsplit.resolvent.apply_A"]
    metrics, problems, _ = bench.layer_metrics(tr, rnd)
    assert problems == []
    assert "residual.calls" not in metrics and "newton.extra_residuals" not in metrics
    assert "resolvent.calls" in metrics


def test_wrappers_restored_when_a_call_raises():
    before = originals()
    tr = T.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            with tr.span("solve"):
                raise RuntimeError("boom")
    assert originals() == before
    assert tr.spans[0][T.END] >= tr.spans[0][T.START]


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((Path(run.REPO) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
