import contextlib
import copy
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stsplit.cli
from stsplit.cli import load_config, main

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
    assert set(summary) == {"final_err_H", "sweeps", "converged", "s_used",
                            "monotone_violations"}
    assert summary["final_err_H"] == 0.0
    assert summary["sweeps"] == 1
    assert summary["converged"] is True
    assert summary["monotone_violations"] == 0
    out = capsys.readouterr().out
    assert "final_err_H=" in out
    assert "converged=True" in out


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
    assert summary["converged"] is False  # stop_tol 0 runs to max_sweeps


def test_run_2d_config(tmp_path, capsys):
    # the 2D path end to end: a PR run on a triangulated square, then the
    # verify checks on the same config
    cfg = base_config(tmp_path)
    cfg["mesh"] = {"dim": 2, "extent": [1.0, 1.0], "cells": [8, 6]}
    cfg["model"] = {"name": "p_laplace", "p": 3.0, "lambda": 1.0}
    cfg["source"] = {"name": "manufactured_cos", "amplitude": 1.0}
    cfg["decomposition"]["overlap_fraction"] = 0.5
    cfg["scheme"] = {"scheme": "PR", "s": 8.0, "max_sweeps": 6,
                     "stop_tol": 0.0}
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    header, rows = read_rows(tmp_path)
    assert header == HEADER
    assert len(rows) == 6
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["sweeps"] == 6
    assert summary["monotone_violations"] == 0
    assert 0.0 < summary["final_err_H"] < float(rows[0][1])
    assert main(["verify", path]) == 0
    assert "all checks passed" in capsys.readouterr().out


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


def test_seed_option_is_rejected(tmp_path, capsys):
    # the config's rng_seed is the only seed, so a config reproduces its run
    cfg = write_config(tmp_path, base_config(tmp_path))
    for command in ("run", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_s_rule_constant_is_an_unknown_key(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["scheme"]["s"]
    cfg["scheme"]["s_rule_constant"] = 2.0
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert ("unknown key 'scheme.s_rule_constant'"
            in capsys.readouterr().err)


def test_solver_failure_exits_3(tmp_path, capsys):
    # with the zero source the iteration stays at u = 0, which solves even
    # the anti-monotone problem; a nonzero load makes its Newton fail
    cfg = base_config(tmp_path)
    cfg["model"] = {"name": "anti_monotone"}
    cfg["source"] = {"name": "custom"}
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "solver failure" in capsys.readouterr().err


def _limit_address_space():
    # runs in the child only: 2 GiB of address space
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command", ["run", "verify"])
def test_problem_too_large_for_memory(tmp_path, command):
    cfg = base_config(tmp_path)
    cfg["time"]["N_t"] = 10**12
    src = str(Path(__file__).resolve().parent.parent / "src")
    # one BLAS thread: each one reserves address space under the limit
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stsplit", command, write_config(tmp_path, cfg)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert "too large for the available memory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 4


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # json.loads raises RecursionError here, not JSONDecodeError
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    for command in ("run", "verify"):
        assert main([command, str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("changes, message", [
    ({"decomposition": {"q": 3}}, "PR requires exactly 2 subdomains"),
    ({"scheme": {"scheme": "AS_shifted"},
      "model": {"gamma_kind": "indicator",
                "gamma_params": {"zero_lo": 0.0, "zero_hi": 0.5}}},
     "gamma >= gamma_0 > 0"),
], ids=["PR-q3", "AS_shifted-indicator"])
def test_unmet_scheme_needs_exit_2_before_any_solve(tmp_path, capsys,
                                                    monkeypatch, changes,
                                                    message):
    def no_reference(ctx):
        raise AssertionError("the reference was solved")

    monkeypatch.setattr(stsplit.cli, "solve_monolithic", no_reference)
    cfg = base_config(tmp_path)
    for section, entries in changes.items():
        cfg[section].update(entries)
    path = write_config(tmp_path, cfg)
    for command in ("run", "verify"):
        assert main([command, path]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


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
    cfg["rng_seed"] = 42
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    first_header, first = read_rows(tmp_path)
    first_summary = (tmp_path / "summary.json").read_text()
    assert main(["run", path]) == 0
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
    cfg["rng_seed"] = 1
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    _, first = read_rows(tmp_path)
    cfg["rng_seed"] = 2
    assert main(["run", write_config(tmp_path, cfg)]) == 0
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


@pytest.mark.parametrize("zone", [(0.5, 0.2), (0.3, 0.3)])
def test_empty_capacity_zone_exits_2(tmp_path, capsys, zone):
    # with an empty zone gamma would never vanish: a parabolic run where a
    # degenerate one was asked for
    cfg = base_config(tmp_path)
    cfg["model"]["gamma_kind"] = "indicator"
    cfg["model"]["gamma_params"] = dict(zip(("zero_lo", "zero_hi"), zone))
    path = write_config(tmp_path, cfg)
    for command in ("run", "verify"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert "zero_lo" in err and "zero_hi" in err


@pytest.mark.parametrize("zone", [(2.0, 3.0), (0.51, 0.53)],
                         ids=["off-the-mesh", "between-nodes"])
def test_capacity_zone_without_a_node_exits_2(tmp_path, capsys, zone):
    # on the README config's 32 cells a zone off the mesh, or between the
    # nodes 0.5 and 0.53125, holds no node: gamma would vanish nowhere and
    # a parabolic problem would run
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    cfg = json.loads(re.sub(r"//.*", "", block))
    cfg["output"] = base_config(tmp_path)["output"]
    cfg["model"]["gamma_kind"] = "indicator"
    cfg["model"]["gamma_params"] = dict(zip(("zero_lo", "zero_hi"), zone))
    path = write_config(tmp_path, cfg)
    for command in ("run", "verify"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert "zero_lo" in err and "zero_hi" in err and "no mesh node" in err
    assert not (tmp_path / "trace.csv").exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key,value", [
    ("model.p", NAN), ("time.T", NAN), ("scheme.s", INF),
    ("scheme.stop_tol", NAN), ("source.decay", NAN),
    ("model.gamma_params.value", NAN),
    ("decomposition.overlap_fraction", INF),
    ("model.gamma_params.axis", 3), ("model.gamma_params.axis", -5),
    ("mesh.dim", -1),
])
def test_bad_value_is_named(tmp_path, capsys, key, value):
    cfg = base_config(tmp_path)
    cfg["model"]["gamma_kind"] = "indicator"
    cfg["model"]["gamma_params"] = {"zero_lo": 0.0, "zero_hi": 0.5}
    cfg["source"] = {"name": "custom"}
    *parents, last = key.split(".")
    sec = cfg
    for part in parents:
        sec = sec[part]
    sec[last] = value
    path = write_config(tmp_path, cfg)
    for command in ("run", "verify"):
        assert main([command, path]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("extent", [[2.225073858507203e-309],
                                    [1.0, 2.225073858507203e-309]])
def test_subnormal_extent_exits_2(tmp_path, capsys, extent):
    # the basis gradients of such cells overflow to inf
    cfg = base_config(tmp_path)
    cfg["mesh"] = {"dim": len(extent), "extent": extent,
                   "cells": [4] * len(extent)}
    path = write_config(tmp_path, cfg)
    for command in ("run", "verify"):
        assert main([command, path]) == 2
        assert "too small" in capsys.readouterr().err


def test_huge_extent_exits_2(tmp_path, capsys):
    # the element measures of such cells overflow to inf
    cfg = base_config(tmp_path)
    cfg["mesh"] = {"dim": 2, "extent": [1e200, 1e200], "cells": [8, 8]}
    path = write_config(tmp_path, cfg)
    for command in ("run", "verify"):
        assert main([command, path]) == 2
        assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("time", "T", 5e-324),  # T/N_t rounds to zero
    ("scheme", "s", 2.225073858507203e-309),  # 1/s overflows
])
def test_too_small_time_step_or_s_exits_2(tmp_path, capsys, section, key,
                                          value):
    cfg = base_config(tmp_path)
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)
    for command in ("run", "verify"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, path]) == 2
        assert "too small" in capsys.readouterr().err


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(re.sub(r"//.*", "", block))
    mesh, grid, model, dec, scheme_cfg, initial, output, seed = load_config(
        str(path), require_output=True)
    assert (mesh.dim, grid.n_steps, model.p, dec.q) == (1, 8, 3.0, 2)
    assert (scheme_cfg.scheme, initial, seed) == ("PR", "zero", 7)
    assert output == ("trace.csv", "summary.json")


# Keys the config must give (model.p only for p_laplace; output only for
# run).  Dropping any other key of the tiny configs below selects a default.
REQUIRED = {"mesh", "time", "model", "source", "decomposition", "scheme",
            "mesh.dim", "mesh.extent", "mesh.cells", "time.T", "time.N_t",
            "model.name", "model.gamma_params.zero_lo",
            "model.gamma_params.zero_hi", "source.name", "decomposition.q",
            "decomposition.overlap_fraction", "scheme.scheme",
            "output.csv_path", "output.json_summary_path"}


@st.composite
def tiny_configs(draw):
    """Valid configs small enough that every run ends in milliseconds."""
    dim = draw(st.sampled_from([1, 2]))
    model = draw(st.sampled_from([
        {"name": "p_laplace", "p": 3.0, "lambda": 1.0},
        {"name": "p_laplace", "p": 2.0, "gamma_kind": "indicator",
         "gamma_params": {"zero_lo": 0.0, "zero_hi": 0.5, "value": 1.0,
                          "axis": 0}},
        {"name": "anti_monotone", "p": 2.0, "gamma_kind": "constant",
         "gamma_params": {"value": 1.0}},
    ]))
    source = draw(st.sampled_from([
        {"name": "zero"}, {"name": "manufactured_cos", "amplitude": 1.0},
        {"name": "custom", "amplitude": 0.5, "mode": 2, "decay": 1.0},
    ]))
    return copy.deepcopy({
        "mesh": {"dim": dim, "extent": [1.0] * dim,
                 "cells": draw(st.lists(st.integers(4, 8), min_size=dim,
                                        max_size=dim))},
        "time": {"T": 0.25, "N_t": draw(st.integers(1, 2))},
        "model": model,
        "source": source,
        "decomposition": {"q": 2, "overlap_fraction": 0.9, "c_min": 0.1},
        "scheme": {"scheme": draw(st.sampled_from(["PR", "DR", "AS",
                                                   "AS_shifted"])),
                   "s": 1.0,
                   "max_sweeps": draw(st.integers(1, 2)), "stop_tol": 1e-10,
                   "initial": draw(st.sampled_from(["zero", "random"]))},
        "output": {"csv_path": "trace.csv",
                   "json_summary_path": "summary.json"},
        "rng_seed": 3,
    })


def _paths(node, prefix=()):
    """Paths to every value below node: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _paths(val, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _is_type_error(old, new):
    if new is None or isinstance(new, bool):
        return True
    if isinstance(old, float):  # integers are numbers too
        return not isinstance(new, (int, float))
    return type(new) is not type(old)


REPLACEMENTS = st.one_of(
    st.sampled_from([NAN, INF, -INF, True, "x", [], {}, None]),
    st.integers(-3, 12), st.floats(-2.0, 2.0))


@pytest.mark.parametrize("action", ["drop", "add", "replace"])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=tiny_configs(), data=st.data())
def test_mutated_config_never_escapes(tmp_path, monkeypatch, action, cfg,
                                      data):
    monkeypatch.chdir(tmp_path)  # mutated output paths stay in here
    # sampled_from favours the first entries; a seeded Random spreads the
    # mutations evenly over the config's keys
    rng = data.draw(st.randoms(use_true_random=False))
    must_fail = set()  # commands that must exit with 2
    if action == "add":
        dicts = [()] + [p for p in _paths(cfg)
                        if isinstance(_at(cfg, p), dict)]
        _at(cfg, rng.choice(dicts))["bogus"] = 1
        must_fail = {"run", "verify"}
    elif action == "drop":
        path = rng.choice([p for p in _paths(cfg) if isinstance(p[-1], str)])
        del _at(cfg, path[:-1])[path[-1]]
        dotted = ".".join(path)
        if (dotted in REQUIRED or dotted == "model.p"
                and cfg["model"]["name"] == "p_laplace"):
            must_fail = {"run", "verify"}
        elif dotted == "output":
            must_fail = {"run"}
    else:  # replace any value but a whole section, list entries included
        path = rng.choice([p for p in _paths(cfg)
                           if not isinstance(_at(cfg, p), dict)])
        parent, key = _at(cfg, path[:-1]), path[-1]
        new = data.draw(REPLACEMENTS)
        if (isinstance(new, float) and not math.isfinite(new)
                or _is_type_error(parent[key], new)):
            must_fail = {"run", "verify"}
        parent[key] = new
    cfg_path = tmp_path / "mutated.json"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("run", "verify"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main([command, str(cfg_path)])
        assert rc in (0, 1, 2, 3)
        if command in must_fail:
            assert rc == 2, (command, cfg)
