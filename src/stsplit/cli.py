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
error (including a problem too large for the available memory), 3 solver
failure, 4 I/O failure.

The config is a single strict JSON file, checked against `_SCHEMA`: unknown
and missing keys, values of the wrong type and non-finite numbers are
rejected, so that experiment files stay diffable and reproducible.
"""

import argparse
import json
import sys

import numpy as np

from .decomposition import build_decomposition
from .errors import ConfigurationError, NumericError, SolverError
from .iteration import SCHEMES, SchemeConfig, check_scheme, run_scheme
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

_REQUIRED = object()  # default of a key that the config must give

# Every config key, section by section: key -> (kind, default or _REQUIRED).
# A kind is float (a finite number), int, str, dict (a JSON object), a
# one-element list such as [float] (a list of that kind), a tuple of the
# accepted values, or the name of a nested section.  A section with variants
# maps to the key that names its variant; each variant has its own entry:
# model.<name>, source.<name>, and model.gamma_params.<gamma_kind>.
_GAMMA = {"gamma_kind": (("constant", "indicator"), "constant"),
          "gamma_params": (dict, {})}
_SCHEMA = {
    "config": {"mesh": ("mesh", _REQUIRED), "time": ("time", _REQUIRED),
               "model": ("model", _REQUIRED),
               "source": ("source", _REQUIRED),
               "decomposition": ("decomposition", _REQUIRED),
               "scheme": ("scheme", _REQUIRED), "output": ("output", None),
               "rng_seed": (int, 0)},
    "mesh": {"dim": ((1, 2), _REQUIRED), "extent": ([float], _REQUIRED),
             "cells": ([int], _REQUIRED)},
    "time": {"T": (float, _REQUIRED), "N_t": (int, _REQUIRED)},
    "model": "name",
    "model.p_laplace": {"name": (str, _REQUIRED), "p": (float, _REQUIRED),
                        "lambda": (float, 0.0), **_GAMMA},
    "model.anti_monotone": {"name": (str, _REQUIRED), "p": (float, 2.0),
                            **_GAMMA},
    "model.gamma_params.constant": {"value": (float, 1.0)},
    "model.gamma_params.indicator": {
        "zero_lo": (float, _REQUIRED), "zero_hi": (float, _REQUIRED),
        "value": (float, 1.0), "axis": (int, 0)},
    "source": "name",
    "source.zero": {"name": (str, _REQUIRED)},
    "source.manufactured_cos": {"name": (str, _REQUIRED),
                                "amplitude": (float, 1.0)},
    "source.custom": {"name": (str, _REQUIRED), "amplitude": (float, 1.0),
                      "mode": (int, 1), "decay": (float, 0.0)},
    "decomposition": {"q": (int, _REQUIRED),
                      "overlap_fraction": (float, _REQUIRED),
                      "c_min": (float, 0.1)},
    "scheme": {"scheme": (SCHEMES, _REQUIRED), "s": (float, None),
               "max_sweeps": (int, 100), "stop_tol": (float, 1e-10),
               "initial": (("zero", "random"), "zero")},
    "output": {"csv_path": (str, _REQUIRED),
               "json_summary_path": (str, _REQUIRED)},
}

_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               dict: "a JSON object", list: "a list"}


def _value(val, where, kind):
    """Check one config value against its kind (see _SCHEMA); return it."""
    if isinstance(kind, str):
        return _section(val, kind, _SCHEMA[kind])
    if isinstance(kind, tuple):
        if _value(val, where, type(kind[0])) not in kind:
            raise ConfigurationError(
                f"'{where}' must be one of {sorted(kind)}, got '{val}'")
        return val
    if isinstance(kind, list):
        return [_value(v, f"{where}[{i}]", kind[0])
                for i, v in enumerate(_value(val, where, list))]
    # abs(val) <= max float also fails for NaN and for too large integers
    if (isinstance(val, bool)
            or not isinstance(val, (int, float) if kind is float else kind)
            or kind is float and not abs(val) <= sys.float_info.max):
        raise ConfigurationError(f"'{where}' must be {_KIND_NAMES[kind]}")
    return float(val) if kind is float else val


def _section(raw, where, spec):
    """Check a config object against its spec; return it with defaults filled.

    Rejects unknown and missing keys and values not of their kind.  A spec
    that is a key name selects the variant `_SCHEMA['<where>.<raw[key]>']`.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(f"'{where}' must be a JSON object")
    if isinstance(spec, str):
        if spec not in raw:
            raise ConfigurationError(f"missing key '{where}.{spec}'")
        names = tuple(n.rpartition(".")[2] for n in _SCHEMA
                      if n.rpartition(".")[0] == where)
        name = _value(raw[spec], f"{where}.{spec}", names)
        spec = _SCHEMA[f"{where}.{name}"]
    for key in raw:
        if key not in spec:
            raise ConfigurationError(f"unknown key '{where}.{key}'")
    out = {}
    for key, (kind, default) in spec.items():
        if key not in raw and default is _REQUIRED:
            raise ConfigurationError(f"missing key '{where}.{key}'")
        out[key] = (_value(raw[key], f"{where}.{key}", kind) if key in raw
                    else default)
    return out


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


def load_config(path, require_output):
    """Parse and validate an experiment config; returns the built pieces."""
    with open(path, "r") as fh:
        raw = fh.read()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigurationError("config is nested too deeply to parse") from exc
    cfg = _section(cfg, "config", dict(_SCHEMA["config"], output=(
        "output", _REQUIRED if require_output else None)))

    dim = cfg["mesh"]["dim"]
    for key in ("extent", "cells"):
        if len(cfg["mesh"][key]) != dim:
            raise ConfigurationError(
                f"'mesh.{key}' must have mesh.dim = {dim} entries")
    mesh = build_mesh(cfg["mesh"]["extent"], cfg["mesh"]["cells"])
    grid = TimeGrid(T=cfg["time"]["T"], n_steps=cfg["time"]["N_t"])

    model_sec = cfg["model"]
    kind = model_sec["gamma_kind"]
    gamma_sec = _section(model_sec["gamma_params"], "model.gamma_params",
                         _SCHEMA[f"model.gamma_params.{kind}"])
    if not 0 <= gamma_sec.get("axis", 0) < dim:
        raise ConfigurationError(
            f"'model.gamma_params.axis' must lie in [0, {dim})")
    build_gamma = constant_gamma if kind == "constant" else indicator_gamma
    gamma = build_gamma(**gamma_sec)
    # a zone between two nodes, or off the mesh, leaves the problem parabolic
    if kind == "indicator" and not np.any(gamma(mesh.nodes) == 0.0):
        raise ConfigurationError(
            f"gamma vanishes at no mesh node: the zone zero_lo <= "
            f"x[{gamma_sec['axis']}] < zero_hi of 'model.gamma_params', "
            f"[{gamma_sec['zero_lo']!r}, {gamma_sec['zero_hi']!r}), "
            f"holds none")
    if model_sec["name"] == "p_laplace":
        model = p_laplace_model(model_sec["p"], lam=model_sec["lambda"],
                                gamma=gamma)
    else:
        model = anti_monotone_model(p=model_sec["p"], gamma=gamma)

    source_sec = cfg["source"]
    name = source_sec.pop("name")
    if name == "manufactured_cos":
        exact = cosine_solution(dim, **source_sec)
        model = model.with_source(manufactured_rhs(model, exact, mesh, grid))
    elif name == "custom":
        model = model.with_source(_custom_source(dim, **source_sec))

    dec = build_decomposition(mesh, **cfg["decomposition"])
    initial = cfg["scheme"].pop("initial")
    scheme_cfg = SchemeConfig(**cfg["scheme"])
    check_scheme(scheme_cfg.scheme, model, dec)
    out = cfg["output"]
    output = None if out is None else (out["csv_path"],
                                       out["json_summary_path"])
    return mesh, grid, model, dec, scheme_cfg, initial, output, cfg["rng_seed"]


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
        "converged": result.converged,
        "s_used": scheme_cfg.s,
        "monotone_violations": count_monotone_violations(
            result.trace, scheme_cfg.scheme),
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} and {summary_path}")
    print(f"final_err_H={summary['final_err_H']:.6e} "
          f"sweeps={summary['sweeps']} converged={summary['converged']} "
          f"s_used={summary['s_used']:.6g} "
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

    ctx = build_context(mesh, model, grid, dec)
    rng = np.random.default_rng(seed)
    lines = []
    all_ok = True

    # pointwise structure sampling (growth / monotonicity / coercivity)
    report = check_p_structure(model, seed=seed, dim=mesh.dim)
    for key, margin in sorted(report.worst_margins.items()):
        all_ok &= _report(lines, f"p_structure.{key}", margin,
                          report.holds(margin))
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
        s = scheme_cfg.s
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
        p.set_defaults(handler=fn)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SolverError, NumericError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # ConfigurationError among them
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("configuration error: the problem is too large for the "
              "available memory", file=sys.stderr)
        return EXIT_CONFIG


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
