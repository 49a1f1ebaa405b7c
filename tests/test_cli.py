import copy
import json

import pytest

from stsplit.cli import main

HEADER = "sweep,err_H,err_k_total,err_k_1,err_k_2,pr_v_norm,pr_w_norm,wall_ms"


def base_config(tmp_path):
    return {
        "mesh": {"dim": 1, "extent": [1.0], "cells": [16]},
        "time": {"T": 0.25, "N_t": 4},
        "model": {"name": "p_laplace", "p": 2.0, "lambda": 0.0},
        "source": {"name": "zero"},
        "decomposition": {"q": 2, "overlap_fraction": 0.5, "c_min": 0.1},
        "scheme": {"scheme": "PR", "s": 1.0, "max_sweeps": 5,
                   "stop_tol": 1e-10},
        "output": {"csv_path": str(tmp_path / "trace.csv"),
                   "json_summary_path": str(tmp_path / "summary.json")},
        "rng_seed": 7,
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(tmp_path):
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_run_zero_source(tmp_path, capsys):
    rc = main(["run", write_config(tmp_path, base_config(tmp_path))])
    assert rc == 0
    header, rows = read_rows(tmp_path)
    assert header == HEADER
    # zero data: the iteration is at the fixed point from sweep one
    assert len(rows) == 1
    assert rows[0][0] == "1"
    assert rows[0][1] == "0"  # err_H
    assert rows[0][5] == "0"  # pr_v_norm
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"final_err_H", "sweeps", "s_used",
                            "monotone_violations"}
    assert summary["final_err_H"] == 0.0
    assert summary["sweeps"] == 1
    assert summary["monotone_violations"] == 0
    out = capsys.readouterr().out
    assert "final_err_H=" in out


def test_run_pr_trace_is_monotone(tmp_path):
    cfg = base_config(tmp_path)
    cfg["source"] = {"name": "manufactured_cos", "amplitude": 1.0}
    cfg["decomposition"]["overlap_fraction"] = 0.9
    cfg["scheme"] = {"scheme": "PR", "s": 1.0, "max_sweeps": 20,
                     "stop_tol": 0.0}
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 0
    header, rows = read_rows(tmp_path)
    assert len(rows) == 20
    assert all(r[5] != "" and r[6] != "" for r in rows)  # PR monitor columns
    assert all(float(r[7]) >= 0.0 for r in rows)  # wall_ms
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["monotone_violations"] == 0
    assert summary["final_err_H"] > 0.0


def test_additive_run_leaves_pr_columns_empty(tmp_path):
    cfg = base_config(tmp_path)
    cfg["decomposition"] = {"q": 3, "overlap_fraction": 0.5}
    cfg["source"] = {"name": "custom", "amplitude": 0.5, "mode": 2,
                     "decay": 1.0}
    cfg["scheme"] = {"scheme": "AS", "max_sweeps": 4, "stop_tol": 0.0}
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 0
    header, rows = read_rows(tmp_path)
    assert header.startswith("sweep,err_H,err_k_total,err_k_1,err_k_2,err_k_3")
    assert all(r[6] == "" and r[7] == "" for r in rows)  # pr_v, pr_w
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["s_used"] == pytest.approx(2.0)  # sqrt(max_sweeps)


def test_missing_key_is_named(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["mesh"]["cells"]
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "mesh.cells" in capsys.readouterr().err


def test_unknown_key_is_named(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["mesh"]["refine"] = 2
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "mesh.refine" in capsys.readouterr().err


def test_invalid_c_min(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["decomposition"]["c_min"] = 0.0
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "c_min" in capsys.readouterr().err


def test_bad_scheme_name(tmp_path):
    cfg = base_config(tmp_path)
    cfg["scheme"]["scheme"] = "gauss_seidel"
    assert main(["run", write_config(tmp_path, cfg)]) == 2


def test_threads_option_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 4


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


def test_unwritable_output_path(tmp_path):
    cfg = base_config(tmp_path)
    cfg["output"]["csv_path"] = str(tmp_path / "no_such_dir" / "trace.csv")
    assert main(["run", write_config(tmp_path, cfg)]) == 4


def test_run_requires_output_section(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["output"]
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "output" in capsys.readouterr().err


def test_same_seed_reproduces_trace(tmp_path):
    cfg = base_config(tmp_path)
    cfg["source"] = {"name": "manufactured_cos"}
    cfg["scheme"] = {"scheme": "DR", "s": 1.0, "max_sweeps": 6,
                     "stop_tol": 0.0, "initial": "random"}
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--seed", "42"]) == 0
    first_header, first = read_rows(tmp_path)
    first_summary = (tmp_path / "summary.json").read_text()
    assert main(["run", path, "--seed", "42"]) == 0
    second_header, second = read_rows(tmp_path)
    assert first_header == second_header
    assert len(first) == len(second)
    # wall_ms is timing noise; every numeric column must match exactly
    for a, b in zip(first, second):
        assert a[:-1] == b[:-1]
    assert (tmp_path / "summary.json").read_text() == first_summary


def test_different_seed_changes_random_start(tmp_path):
    cfg = base_config(tmp_path)
    cfg["source"] = {"name": "manufactured_cos"}
    cfg["scheme"] = {"scheme": "DR", "s": 1.0, "max_sweeps": 2,
                     "stop_tol": 0.0, "initial": "random"}
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--seed", "1"]) == 0
    _, first = read_rows(tmp_path)
    assert main(["run", path, "--seed", "2"]) == 0
    _, second = read_rows(tmp_path)
    assert first[0][1] != second[0][1]


def test_verify_default_passes(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["output"]
    rc = main(["verify", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    for name in ("p_structure.", "partition_of_unity.a",
                 "partition_of_unity.b", "partition_of_unity.g",
                 "capacity_reconstruction", "restriction_adjointness",
                 "resolvent_nonexpansiveness"):
        assert name in out
    assert "FAIL" not in out


def test_verify_flags_anti_monotone_model(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["output"]
    cfg["model"] = {"name": "anti_monotone", "p": 2.0}
    rc = main(["verify", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert "verification FAILED" in out
    # no nonexpansiveness claim for a non-monotone operator
    assert "(not run)" in out
    skip_line = [l for l in out.splitlines()
                 if "resolvent_nonexpansiveness" in l][0]
    assert "SKIP" in skip_line


def test_verify_accepts_degenerate_capacity(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["output"]
    cfg["model"]["gamma_kind"] = "indicator"
    cfg["model"]["gamma_params"] = {"zero_lo": 0.0, "zero_hi": 0.5}
    rc = main(["verify", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "capacity_reconstruction" in out
    assert "all checks passed" in out
