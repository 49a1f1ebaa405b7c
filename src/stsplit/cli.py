"""Configuration-driven experiment runner and property verifier.

Subcommands:
  run <config.json>     build the problem, solve the monolithic reference,
                        run the configured splitting scheme, write the
                        per-sweep trace CSV and a JSON summary
  verify <config.json>  run the structural property checks (weight partition
                        of unity, restriction adjointness, capacity
                        reconstruction, resolvent nonexpansiveness, pointwise
                        structure sampling) and print per-check margins

Exit codes: 0 success, 1 verify found a failing property, 2 configuration
error, 3 solver failure, 4 I/O failure.

The config is a single strict JSON file; unknown keys are rejected so that
experiment files stay diffable and reproducible.
"""

import argparse
import json
import sys

import numpy as np

from .decomposition import build_decomposition
from .errors import ConfigurationError, NumericError, SolverError
from .iteration import SchemeConfig, run_scheme
from .mesh import build_mesh
from .models import (
    SourceTerm,
    anti_monotone_model,
    check_p_structure,
    constant_gamma,
    indicator_gamma,
    p_laplace_model,
)
from .operators import TimeGrid, build_context, h_inner, h_norm
from .reference import cosine_solution, manufactured_rhs, solve_monolithic
from .resolvent import ResolventConfig, resolvent_solve

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_TOP_KEYS = ("mesh", "time", "model", "source", "decomposition", "scheme",
             "output", "rng_seed")


def _require_dict(obj, where):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"'{where}' must be a JSON object")
    return obj


def _check_keys(sec, where, required, optional=()):
    allowed = set(required) | set(optional)
    for key in sec:
        if key not in allowed:
            raise ConfigurationError(f"unknown key '{where}.{key}'")
    for key in required:
        if key not in sec:
            raise ConfigurationError(f"missing key '{where}.{key}'")


def _num(sec, where, key, default=None):
    if key not in sec:
        return default
    val = sec[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigurationError(f"'{where}.{key}' must be a number")
    return float(val)


def _int(sec, where, key, default=None):
    if key not in sec:
        return default
    val = sec[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigurationError(f"'{where}.{key}' must be an integer")
    return val


def _str(sec, where, key, choices=None, default=None):
    if key not in sec:
        return default
    val = sec[key]
    if not isinstance(val, str):
        raise ConfigurationError(f"'{where}.{key}' must be a string")
    if choices is not None and val not in choices:
        raise ConfigurationError(
            f"'{where}.{key}' must be one of {sorted(choices)}, got '{val}'"
        )
    return val


def _num_list(sec, where, key, length):
    val = sec.get(key)
    if (not isinstance(val, list) or len(val) != length
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in val)):
        raise ConfigurationError(
            f"'{where}.{key}' must be a list of {length} numbers"
        )
    return [float(v) for v in val]


def _int_list(sec, where, key, length):
    val = sec.get(key)
    if (not isinstance(val, list) or len(val) != length
            or any(isinstance(v, bool) or not isinstance(v, int) for v in val)):
        raise ConfigurationError(
            f"'{where}.{key}' must be a list of {length} integers"
        )
    return list(val)


def _build_gamma(model_sec):
    kind = _str(model_sec, "model", "gamma_kind",
                choices={"constant", "indicator"}, default="constant")
    params = _require_dict(model_sec.get("gamma_params", {}),
                           "model.gamma_params")
    if kind == "constant":
        _check_keys(params, "model.gamma_params", (), ("value",))
        return constant_gamma(_num(params, "model.gamma_params", "value", 1.0))
    _check_keys(params, "model.gamma_params", ("zero_lo", "zero_hi"),
                ("value", "axis"))
    return indicator_gamma(
        _num(params, "model.gamma_params", "zero_lo"),
        _num(params, "model.gamma_params", "zero_hi"),
        value=_num(params, "model.gamma_params", "value", 1.0),
        axis=_int(params, "model.gamma_params", "axis", 0),
    )


def _build_model(model_sec):
    name = _str(model_sec, "model", "name",
                choices={"p_laplace", "anti_monotone"})
    if name is None:
        raise ConfigurationError("missing key 'model.name'")
    gamma = _build_gamma(model_sec)
    if name == "p_laplace":
        _check_keys(model_sec, "model", ("name", "p"),
                    ("lambda", "gamma_kind", "gamma_params"))
        return p_laplace_model(
            _num(model_sec, "model", "p"),
            lam=_num(model_sec, "model", "lambda", 0.0),
            gamma=gamma,
        )
    _check_keys(model_sec, "model", ("name",),
                ("p", "gamma_kind", "gamma_params"))
    return anti_monotone_model(p=_num(model_sec, "model", "p", 2.0),
                               gamma=gamma)


def _custom_source(dim, amplitude, mode, decay):
    # generic smooth separable driving term for experiments
    freq = mode * np.pi

    def eta0(x, t):
        x = np.asarray(x)
        return amplitude * np.exp(-decay * t) * np.cos(freq * x[..., 0])

    def eta(x, t):
        x = np.asarray(x)
        out = np.zeros(x.shape)
        out[..., 0] = amplitude * np.exp(-decay * t) * np.sin(freq * x[..., 0])
        return out

    return SourceTerm(eta0=eta0, eta=eta)


def _build_source(source_sec, model, mesh, grid):
    name = _str(source_sec, "source", "name",
                choices={"zero", "manufactured_cos", "custom"})
    if name is None:
        raise ConfigurationError("missing key 'source.name'")
    if name == "zero":
        _check_keys(source_sec, "source", ("name",))
        return model
    if name == "manufactured_cos":
        _check_keys(source_sec, "source", ("name",), ("amplitude",))
        exact = cosine_solution(
            mesh.dim, amplitude=_num(source_sec, "source", "amplitude", 1.0))
        return model.with_source(manufactured_rhs(model, exact, mesh, grid))
    _check_keys(source_sec, "source", ("name",),
                ("amplitude", "mode", "decay"))
    return model.with_source(_custom_source(
        mesh.dim,
        _num(source_sec, "source", "amplitude", 1.0),
        _int(source_sec, "source", "mode", 1),
        _num(source_sec, "source", "decay", 0.0),
    ))


def _build_scheme_config(scheme_sec):
    _check_keys(scheme_sec, "scheme", ("scheme",),
                ("s", "s_rule_constant", "max_sweeps", "stop_tol", "initial"))
    name = _str(scheme_sec, "scheme", "scheme",
                choices={"PR", "DR", "AS", "AS_shifted"})
    cfg = SchemeConfig(
        scheme=name,
        s=_num(scheme_sec, "scheme", "s"),
        s_rule_constant=_num(scheme_sec, "scheme", "s_rule_constant"),
        max_sweeps=_int(scheme_sec, "scheme", "max_sweeps", 100),
        stop_tol=_num(scheme_sec, "scheme", "stop_tol", 1e-10),
    )
    initial = _str(scheme_sec, "scheme", "initial",
                   choices={"zero", "random"}, default="zero")
    return cfg, initial


def load_config(path, require_output):
    """Parse and validate an experiment config; returns the built pieces."""
    with open(path, "r") as fh:
        raw = fh.read()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    _require_dict(cfg, "config")
    required = ["mesh", "time", "model", "source", "decomposition", "scheme"]
    if require_output:
        required.append("output")
    _check_keys(cfg, "config", tuple(required),
                tuple(k for k in _TOP_KEYS if k not in required))

    mesh_sec = _require_dict(cfg["mesh"], "mesh")
    _check_keys(mesh_sec, "mesh", ("dim", "extent", "cells"))
    dim = _int(mesh_sec, "mesh", "dim")
    mesh = build_mesh(_num_list(mesh_sec, "mesh", "extent", dim),
                      _int_list(mesh_sec, "mesh", "cells", dim))

    time_sec = _require_dict(cfg["time"], "time")
    _check_keys(time_sec, "time", ("T", "N_t"))
    grid = TimeGrid(T=_num(time_sec, "time", "T"),
                    n_steps=_int(time_sec, "time", "N_t"))

    model = _build_model(_require_dict(cfg["model"], "model"))
    model = _build_source(_require_dict(cfg["source"], "source"),
                          model, mesh, grid)

    dec_sec = _require_dict(cfg["decomposition"], "decomposition")
    _check_keys(dec_sec, "decomposition", ("q", "overlap_fraction"), ("c_min",))
    dec = build_decomposition(
        mesh,
        _int(dec_sec, "decomposition", "q"),
        _num(dec_sec, "decomposition", "overlap_fraction"),
        c_min=_num(dec_sec, "decomposition", "c_min", 0.1),
    )

    scheme_cfg, initial = _build_scheme_config(
        _require_dict(cfg["scheme"], "scheme"))

    output = None
    if "output" in cfg:
        out_sec = _require_dict(cfg["output"], "output")
        _check_keys(out_sec, "output", ("csv_path", "json_summary_path"))
        output = (_str(out_sec, "output", "csv_path"),
                  _str(out_sec, "output", "json_summary_path"))
        if output[0] is None or output[1] is None:
            raise ConfigurationError("output paths must be strings")

    seed = _int(cfg, "config", "rng_seed", 0)
    return mesh, grid, model, dec, scheme_cfg, initial, output, seed


def _format_cell(value):
    return "" if value is None else "%.17g" % float(value)


def write_trace_csv(path, trace):
    header = (["sweep", "err_H", "err_k_total"]
              + [f"err_k_{ell + 1}" for ell in range(trace.q)]
              + ["pr_v_norm", "pr_w_norm", "wall_ms"])
    rows = [",".join(header)]
    for i in range(len(trace)):
        cells = [str(trace.sweep[i]),
                 _format_cell(trace.err_H[i]),
                 _format_cell(trace.err_k_total[i])]
        cells += [_format_cell(e) for e in trace.err_k[i]]
        cells += [_format_cell(trace.pr_v_norm[i]),
                  _format_cell(trace.pr_w_norm[i]),
                  _format_cell(trace.wall_ms[i])]
        rows.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def count_monotone_violations(trace, scheme):
    """Sweeps where the scheme's monitored quantity increased beyond slack."""
    if scheme == "PR":
        seq = trace.v_sequence()
    else:
        seq = [e for e in trace.err_H if e is not None]
    if len(seq) < 2:
        return 0
    slack = 1e-10 * (1.0 + seq[0] ** 2)
    return sum(1 for a, b in zip(seq, seq[1:]) if b * b > a * a + slack)


def _cmd_run(args):
    pieces = load_config(args.config, require_output=True)
    mesh, grid, model, dec, scheme_cfg, initial, output, seed = pieces
    if args.seed is not None:
        seed = args.seed

    ctx = build_context(mesh, model, grid, dec)
    u_ref = solve_monolithic(ctx)

    u0 = None
    if initial == "random":
        rng = np.random.default_rng(seed)
        u0 = rng.standard_normal((grid.n_steps, mesh.n_nodes))

    result = run_scheme(ctx, scheme_cfg, u_ref=u_ref, initial=u0)

    csv_path, summary_path = output
    write_trace_csv(csv_path, result.trace)
    summary = {
        "final_err_H": result.trace.err_H[-1],
        "sweeps": result.sweeps,
        "s_used": result.s_used,
        "monotone_violations": count_monotone_violations(
            result.trace, scheme_cfg.scheme),
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} and {summary_path}")
    print(f"final_err_H={summary['final_err_H']:.6e} "
          f"sweeps={summary['sweeps']} s_used={summary['s_used']:.6g} "
          f"monotone_violations={summary['monotone_violations']}")
    return EXIT_OK


def _report(lines, name, margin, passed, skipped=False):
    status = "SKIP" if skipped else ("PASS" if passed else "FAIL")
    tag = "     (not run)" if skipped else f"margin={margin:+.3e}"
    lines.append(f"{name:<34s} {tag}  {status}")
    return passed or skipped


def _cmd_verify(args):
    pieces = load_config(args.config, require_output=False)
    mesh, grid, model, dec, scheme_cfg, _initial, _output, seed = pieces
    if args.seed is not None:
        seed = args.seed

    ctx = build_context(mesh, model, grid, dec)
    rng = np.random.default_rng(seed)
    lines = []
    all_ok = True

    # pointwise structure sampling (growth / monotonicity / coercivity)
    report = check_p_structure(model, num_samples=10_000, seed=seed,
                               dim=mesh.dim)
    for key in sorted(report.worst_margins):
        all_ok &= _report(lines, f"p_structure.{key}",
                          report.worst_margins[key],
                          report.worst_margins[key] >= -1e-12)
    model_monotone = report.passed

    # weight partitions of unity and capacity reconstruction
    tol = 1e-12
    a_sum = sum(dec.weights[ell].a for ell in range(dec.q))
    b_sum = sum(dec.weights[ell].b_elem for ell in range(dec.q))
    g_sum = sum(dec.weights[ell].g_node for ell in range(dec.q))
    cap_sum = np.zeros(mesh.n_nodes)
    for ell in range(dec.q):
        b = ctx.bundle(ell)
        np.add.at(cap_sum, b.nodes, b.cap)
    cap_ref = ctx.bundle().cap
    cap_scale = max(1.0, float(np.max(np.abs(cap_ref))))
    for name, dev in (
        ("partition_of_unity.a", float(np.max(np.abs(a_sum - 1.0)))),
        ("partition_of_unity.b", float(np.max(np.abs(b_sum - 1.0)))),
        ("partition_of_unity.g", float(np.max(np.abs(g_sum - 1.0)))),
        ("capacity_reconstruction",
         float(np.max(np.abs(cap_sum - cap_ref))) / cap_scale),
    ):
        all_ok &= _report(lines, name, tol - dev, dev <= tol)

    # restriction/extension adjointness in the lumped space-time product
    worst = 0.0
    for _ in range(3):
        v = rng.standard_normal((grid.n_steps, mesh.n_nodes))
        for ell in range(dec.q):
            ul = rng.standard_normal((grid.n_steps, dec.subdomains[ell].nodes.size))
            lhs = h_inner(ctx, dec.extend(ell, ul), v)
            rhs = h_inner(ctx, ul, dec.restrict(ell, v), ell=ell)
            scale = max(1.0, abs(lhs))
            worst = max(worst, abs(lhs - rhs) / scale)
    all_ok &= _report(lines, "restriction_adjointness", tol - worst,
                      worst <= tol)

    # scaled nonexpansiveness of the subdomain resolvents
    if model_monotone:
        s = scheme_cfg.resolve_s()
        rcfg = ResolventConfig(s=s)
        bound = (1.0 + 1e-8) / s
        worst_ratio = 0.0
        for _ in range(3):
            g1 = rng.standard_normal((grid.n_steps, mesh.n_nodes))
            g2 = rng.standard_normal((grid.n_steps, mesh.n_nodes))
            denom = h_norm(ctx, g1 - g2)
            for ell in range(dec.q):
                r1 = resolvent_solve(ctx, ell, g1, rcfg)
                r2 = resolvent_solve(ctx, ell, g2, rcfg)
                worst_ratio = max(worst_ratio, h_norm(ctx, r1 - r2) / denom)
        margin = (bound - worst_ratio) * s
        all_ok &= _report(lines, "resolvent_nonexpansiveness", margin,
                          worst_ratio <= bound)
    else:
        _report(lines, "resolvent_nonexpansiveness", 0.0, False, skipped=True)

    print("\n".join(lines))
    if not all_ok:
        print("verification FAILED")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stsplit",
        description="space-time splitting experiments for degenerate "
                    "elliptic-parabolic problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("verify", _cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's rng_seed")
        p.set_defaults(handler=fn)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, NumericError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
