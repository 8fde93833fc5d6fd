"""Experiment driver: single runs, sweeps, power estimates, and scaling tables.

Configs are JSON documents; see ``configs/`` for the canonical variants. Runs
write ``trace.csv`` (per-step progress), ``spikes.csv`` (per-unit spike
counts), and ``summary.json`` (final error, evaluation count, config echo,
power estimate). Reals are written with full round-trip precision so
deterministic runs can be compared byte for byte; the wall-clock column is
zeroed in deterministic mode for the same reason.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import List, Optional


from .runtime import (
    ConfigError,
    RunAbort,
    RunConfig,
    RunTrace,
    check_keys,
    config_integer,
    config_section,
    estimate_power,
    measure_scaling,
    run,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_RUNTIME_ABORT = 3

_DEFAULT_DT_SIM_MS = 0.5


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trace_csv(trace: RunTrace, path: Path) -> None:
    deterministic = trace.mode == "det"
    lines = ["step,f_g,eps_f,spikes_total,wall_ms"]
    spikes_total = trace.spikes.sum(axis=1)
    for t in range(trace.steps + 1):
        wall = 0.0 if deterministic else float(trace.wall_ms[t])
        lines.append(
            f"{t},{_fmt(trace.f_g[t])},{_fmt(trace.eps_f[t])},"
            f"{int(spikes_total[t])},{_fmt(wall)}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_spikes_csv(trace: RunTrace, path: Path) -> None:
    n = trace.spikes.shape[1]
    lines = ["step," + ",".join(f"u{i}" for i in range(n))]
    for t in range(trace.steps + 1):
        lines.append(f"{t}," + ",".join(str(int(c)) for c in trace.spikes[t]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary(trace: RunTrace, cfg: RunConfig, path: Path) -> None:
    m = cfg.info_m if cfg.info_topology == "random_m" else cfg.n - 1
    power = estimate_power(cfg.n, cfg.dimension, m, _DEFAULT_DT_SIM_MS * 1e-3)
    summary = {
        "final_f_g": float(trace.final_f_g),
        "final_eps": float(trace.final_eps),
        "evaluations": trace.evaluations,
        "steps": trace.steps,
        "mode": trace.mode,
        "event_count": trace.event_count,
        "config": cfg.to_dict(),
        "power_estimate": {
            "dt_sim_ms": _DEFAULT_DT_SIM_MS,
            "n_syn": power.n_syn,
            "e_step_joules": power.e_step_joules,
            "p_avg_watts": power.p_avg_watts,
        },
    }
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


def _execute_run(cfg: RunConfig, out_dir: Path, timeout_s: Optional[float]) -> RunTrace:
    trace = run(cfg, timeout_s=timeout_s)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    write_spikes_csv(trace, out_dir / "spikes.csv")
    write_summary(trace, cfg, out_dir / "summary.json")
    return trace


def cmd_run(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.mode is not None:
        data["mode"] = args.mode
    cfg = RunConfig.from_dict(data)
    out_dir = Path(args.out)
    trace = _execute_run(cfg, out_dir, args.timeout)
    print(
        f"{cfg.problem_name} d={cfg.dimension} n={cfg.n} seed={cfg.seed} "
        f"mode={cfg.mode}: eps_f={trace.final_eps:.6g} "
        f"evaluations={trace.evaluations} -> {out_dir}"
    )
    return EXIT_OK


def _set_path(data: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot set {dotted}: {key} is not an object")
    node[keys[-1]] = value


def _spec_file(path: str, allowed, kind: str) -> dict:
    """A sweep or scale file holding only ``allowed`` keys and an object ``base``."""
    spec = _load_json(path)
    if not isinstance(spec, dict):
        raise ConfigError(f"{kind} config must be a JSON object")
    check_keys(spec, allowed, f"{kind} config")
    if not isinstance(spec.get("base"), dict):
        raise ConfigError(f"{kind} config needs a 'base' object")
    return spec


def _value_list(value, name: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
    return value


def _positive(value, name: str) -> int:
    count = config_integer(value, name)
    if count < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return count


def _variant(base: dict, settings) -> RunConfig:
    data = json.loads(json.dumps(base))
    for key, value in settings:
        _set_path(data, key, value)
    return RunConfig.from_dict(data)


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_file(args.config, ("base", "sweep", "out"), "sweep")
    grid = spec.get("sweep")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep config needs a non-empty 'sweep' mapping")
    out = args.out if args.out is not None else spec.get("out", "sweep_out")
    if not isinstance(out, str):
        raise ConfigError(f"sweep out must be a directory name, got {out!r}")
    keys = sorted(grid)
    values = [_value_list(grid[k], f"sweep.{k}") for k in keys]
    # every combination is parsed before the first run starts
    configs = [_variant(spec["base"], zip(keys, combo)) for combo in itertools.product(*values)]
    out_root = Path(out)
    index: List[dict] = []
    for cfg in configs:
        tag = f"{cfg.problem_name}_d{cfg.dimension}_n{cfg.n}_seed{cfg.seed}"
        trace = _execute_run(cfg, out_root / tag, args.timeout)
        index.append(
            {
                "dir": tag,
                "final_eps": trace.final_eps,
                "evaluations": trace.evaluations,
            }
        )
        print(f"{tag}: eps_f={trace.final_eps:.6g}")
    (out_root / "index.json").write_text(json.dumps(index, indent=2) + "\n")
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    est = estimate_power(args.n, args.d, args.m, args.dt_ms * 1e-3)
    print(f"N_syn = {est.n_syn}")
    print(f"E_step = {est.e_step_joules:.6e} J ({est.e_step_joules * 1e3:.4f} mJ)")
    print(f"P_avg = {est.p_avg_watts:.6e} W ({est.p_avg_watts:.4f} W)")
    return EXIT_OK


def cmd_scale(args: argparse.Namespace) -> int:
    spec = _spec_file(args.config, ("base", "grid", "budget", "repeats"), "scale")
    grid = config_section(spec, "grid", ("n", "d"), "scale ")
    ns = _value_list(grid.get("n"), "grid.n")
    ds = _value_list(grid.get("d"), "grid.d")
    budget = _positive(spec.get("budget", 30), "budget")
    repeats = _positive(spec.get("repeats", 7), "repeats")
    configs = [
        _variant(spec["base"], [("n", n), ("problem.dimension", d), ("budget", budget)])
        for n, d in itertools.product(ns, ds)
    ]
    result = measure_scaling(configs, repeats=repeats)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["n,d,mean_ms,std_ms,cv"]
    print(f"{'n':>4} {'d':>4} {'mean_ms':>10} {'std_ms':>10} {'cv':>8}")
    for row in result.as_rows():
        lines.append(
            f"{row['n']},{row['d']},{_fmt(row['mean_ms'])},"
            f"{_fmt(row['std_ms'])},{_fmt(row['cv'])}"
        )
        print(
            f"{row['n']:>4} {row['d']:>4} {row['mean_ms']:>10.4f} "
            f"{row['std_ms']:>10.4f} {row['cv']:>8.3f}"
        )
    (out_dir / "scaling.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"fit slope vs n: {result.slope_vs_n:.3e} ms/unit")
    print(f"fit slope vs d: {result.slope_vs_d:.3e} ms/dimension")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikeopt", description="spike-driven population optimizer"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="run_out")
    p_run.add_argument("--mode", choices=("det", "async"), default=None)
    p_run.add_argument("--timeout", type=float, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a cartesian product of configs")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--timeout", type=float, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_power = sub.add_parser("power", help="print the energy/power estimate")
    p_power.add_argument("--n", type=int, required=True)
    p_power.add_argument("--d", type=int, required=True)
    p_power.add_argument("--m", type=int, required=True)
    p_power.add_argument("--dt-ms", type=float, required=True, dest="dt_ms")
    p_power.set_defaults(func=cmd_power)

    p_scale = sub.add_parser("scale", help="measure runtime scaling over (n, d)")
    p_scale.add_argument("--config", required=True)
    p_scale.add_argument("--out", default="scale_out")
    p_scale.set_defaults(func=cmd_scale)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except RunAbort as exc:
        print(f"run aborted: {exc.diagnostic}", file=sys.stderr)
        return EXIT_RUNTIME_ABORT


if __name__ == "__main__":
    sys.exit(main())
