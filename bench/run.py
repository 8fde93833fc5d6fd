"""Benchmark for spikeopt: end-to-end and per-layer metrics on fixed workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload det-linear-sphere-d2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a closed batch, one run after the other in this process: a
run parses the config (``RunConfig.from_dict``), calls ``runtime.run`` and
writes ``trace.csv``, ``spikes.csv`` and ``summary.json`` with the ``cli``
writers. Runs start until ``--seconds`` have passed; they cycle through
``SEEDS_PER_BATCH`` config seeds derived from ``--seed``. Before them come one
full-state check run (which also warms the process) and a series of
set-up-only samples; after them, one child process does a single run to
measure peak memory.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced runs with runs whose layer functions are wrapped (see ``layers.py``)
and reports the per-layer metrics and the tracing overhead instead. Every
run's outputs are checked (see ``checks.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import checks
import layers
from workloads import (
    BENCH_DIR,
    FULL_STATE_MAX_BUDGET,
    RUN_TIMEOUT_S,
    SPHERE_TARGET_EPS,
    WORKLOADS,
    NoProgram,
    import_spikeopt,
    workload_config,
)

OUT_DIR = BENCH_DIR / "out"
END_TO_END_UNITS = {
    "unit_steps_per_s": "unit-steps/s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SETUP_SAMPLES = 25
SEEDS_PER_BATCH = 4
PEAK_RSS_TIMEOUT_S = 90.0
OUTPUT_FILES = ("trace.csv", "spikes.csv", "summary.json")


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".rows")):
        return "count"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "s"


@dataclass
class Sample:
    """Timings of one run, split at the points ``run`` and the writers expose."""

    trace: object
    run_s: float
    setup_s: float
    step_s: float
    write_s: float
    write_bytes: int


def run_once(sp, data: dict, out_dir: Path, tracer: Optional[layers.LayerTracer] = None) -> Sample:
    """Parse, build, step and write one run, as ``spikeopt run`` does."""
    runtime, cli = sp.runtime, sp.cli
    out_dir.mkdir(parents=True, exist_ok=True)
    build_s: List[float] = []

    def timed_build(build):
        def wrapper(cfg):
            t0 = perf_counter()
            built = build(cfg)
            build_s.append(perf_counter() - t0)
            return built

        return wrapper

    def install(patches: layers.Patches) -> None:
        # run() makes exactly one _build call; timing it separates set-up from stepping
        patches.attr(runtime, "_build", timed_build)
        if tracer is not None:
            tracer.install(sp, patches)

    with layers.patched(install):
        t0 = perf_counter()
        cfg = runtime.RunConfig.from_dict(data)
        t1 = perf_counter()
        trace = runtime.run(cfg, timeout_s=RUN_TIMEOUT_S)
        t2 = perf_counter()
        cli.write_trace_csv(trace, out_dir / "trace.csv")
        cli.write_spikes_csv(trace, out_dir / "spikes.csv")
        cli.write_summary(trace, cfg, out_dir / "summary.json")
        t3 = perf_counter()
    checks.check_written_files(trace, cfg.to_dict(), out_dir)
    return Sample(
        trace=trace,
        run_s=t3 - t0,
        setup_s=(t1 - t0) + build_s[0],
        step_s=(t2 - t1) - build_s[0],
        write_s=t3 - t2,
        write_bytes=sum((out_dir / name).stat().st_size for name in OUTPUT_FILES),
    )


def f_g_digest(f_g) -> str:
    return hashlib.sha256(f_g.tobytes()).hexdigest()


class WorkloadBench:
    """Runs one workload and keeps its failure count and check results.

    The runs of a batch cycle through ``SEEDS_PER_BATCH`` config seeds derived
    from the benchmark seed, so one measurement averages over several
    trajectories, and a det seed that comes round again must repeat its
    ``f_g`` exactly.
    """

    def __init__(self, sp, workload: str, seed: int):
        self.sp = sp
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.run_seeds = [seed * SEEDS_PER_BATCH + k for k in range(SEEDS_PER_BATCH)]
        self.configs = [workload_config(workload, s) for s in self.run_seeds]
        first = self.configs[0]
        self.det = first["mode"] == "det"
        self.target_eps = SPHERE_TARGET_EPS if first["problem"]["name"] == "sphere" else None
        self.unit_steps = first["n"] * first["budget"]
        self.unit_dim_steps = self.unit_steps * first["problem"]["dimension"]
        self.out_dir = OUT_DIR / workload
        self.reference_f_g: Dict[int, object] = {}
        self.rounds = 0

    @property
    def correct(self) -> bool:
        return not self.errors

    def next_config(self) -> dict:
        data = self.configs[self.rounds % SEEDS_PER_BATCH]
        self.rounds += 1
        return data

    def attempt(self, data: dict, tracer=None) -> Optional[Sample]:
        """One run; a run the program aborts counts as failed, a wrong output as incorrect."""
        self.attempted += 1
        gc.collect()  # start each run from a heap without the previous runs' garbage
        try:
            sample = run_once(self.sp, data, self.out_dir / "run", tracer)
            checks.check_run(sample.trace, data, self.target_eps)
            if self.det:
                self.check_deterministic(data["seed"], sample.trace.f_g)
        except self.sp.runtime.RunAbort as exc:
            self.failed += 1
            print(f"{self.workload}: run aborted: {exc.diagnostic}", file=sys.stderr)
            return None
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))
            print(f"{self.workload}: check failed: {exc}", file=sys.stderr)
            return None
        return sample

    def check_deterministic(self, seed: int, f_g) -> None:
        # the capped full-state run gives a prefix of the full-budget runs' f_g
        reference = self.reference_f_g.get(seed)
        if reference is not None:
            checks.check_same_f_g(reference, f_g)
        if reference is None or f_g.size > reference.size:
            self.reference_f_g[seed] = f_g

    def full_state_check(self) -> None:
        """One capped full-state run, replayed step by step; also warms the process."""
        data = json.loads(json.dumps(self.configs[0]))
        data["log"] = "full-state"
        data["budget"] = min(data["budget"], FULL_STATE_MAX_BUDGET)
        sample = self.attempt(data)
        if sample is None:
            return
        problem = data["problem"]
        shift = self.sp.problem.make_benchmark(
            problem["name"], problem["dimension"], seed=data["seed"]
        ).optimum_position
        try:
            checks.check_full_state(sample.trace, data, shift)
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))
            print(f"{self.workload}: full-state check failed: {exc}", file=sys.stderr)

    def setup_samples(self) -> List[float]:
        """Config parse plus build, alone, repeated over the batch's seeds."""
        runtime = self.sp.runtime
        samples = []
        for k in range(SETUP_SAMPLES):
            data = self.configs[k % SEEDS_PER_BATCH]
            gc.collect()
            t0 = perf_counter()
            runtime._build(runtime.RunConfig.from_dict(data))
            samples.append(perf_counter() - t0)
        return samples

    def peak_rss(self) -> float:
        """Peak resident memory of a fresh process doing one run of the workload."""
        seed = self.run_seeds[0]
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "peak_rss.py"), self.workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PEAK_RSS_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"peak-memory run failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        reference = self.reference_f_g.get(seed)
        if self.det and reference is not None and child["f_g_sha256"] != f_g_digest(reference):
            self.errors.append("an equal-seed det run in a fresh process gave another f_g")
        return child["peak_rss_mb"]

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        self.full_state_check()
        setups = self.setup_samples()
        step_s: List[float] = []
        run_s: List[float] = []

        def one() -> None:
            sample = self.attempt(self.next_config())
            if sample is not None:
                step_s.append(sample.step_s)
                run_s.append(sample.run_s)
                setups.append(sample.setup_s)

        for_seconds(seconds, one)
        if not step_s:
            raise RuntimeError(f"{self.workload}: no run completed")
        return {
            "unit_steps_per_s": self.unit_steps / statistics.median(step_s),
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": self.peak_rss(),
        }

    def per_layer(self, seconds: float) -> Dict[str, float]:
        self.full_state_check()
        plain_run_s: List[float] = []
        traced_run_s: List[float] = []
        traced: List[Dict[str, float]] = []

        def pair() -> None:
            data = self.next_config()
            untraced = self.attempt(data)
            tracer = layers.LayerTracer()
            sample = self.attempt(data, tracer)
            if untraced is None or sample is None:
                return
            plain_run_s.append(untraced.run_s)
            traced_run_s.append(sample.run_s)
            traced.append(
                layers.layer_metrics(
                    tracer,
                    step_s=sample.step_s,
                    unit_dim_steps=self.unit_dim_steps,
                    event_count=sample.trace.event_count,
                    write_s=sample.write_s,
                    write_bytes=sample.write_bytes,
                )
            )

        for_seconds(seconds, pair)
        if not traced:
            raise RuntimeError(f"{self.workload}: no traced pair completed")
        metrics = {name: statistics.fmean(m[name] for m in traced) for name in traced[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_run_s) - statistics.median(
            plain_run_s
        )
        return metrics


def for_seconds(seconds: float, round_fn) -> None:
    """Closed batch: start one round after the other until ``seconds`` have passed."""
    start = perf_counter()
    while perf_counter() - start < seconds:
        round_fn()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        sp = import_spikeopt()
    except (NoProgram, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, dict] = {}
    for name in names:
        bench = WorkloadBench(sp, name, args.seed)
        if args.trace:
            values = bench.per_layer(args.seconds)
            units = {k: layer_unit(k) for k in values}
        else:
            values = bench.end_to_end(args.seconds)
            units = END_TO_END_UNITS
        print(f"{name}: attempted {bench.attempted}, failed {bench.failed}, correct {bench.correct}")
        for key, value in values.items():
            print(f"  {key:<28} {value:>14.6g} {units[key]}")
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
        correct &= bench.correct
        attempted += bench.attempted
        failed += bench.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
