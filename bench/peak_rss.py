"""Do one run of a workload in this fresh process and report its peak memory.

``run.py`` starts this script once per measurement, so the figure covers the
interpreter, NumPy and ``spikeopt`` plus exactly one run. It prints one JSON
line with ``peak_rss_mb`` and the SHA-256 of the run's ``f_g`` bytes, which
lets the parent check that an equal-seed det run in another process gives
the same trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import OUT_DIR, f_g_digest, run_once
from workloads import WORKLOADS, import_spikeopt, workload_config


def peak_rss_mb() -> float:
    """This process's resident high-water mark since it started the interpreter.

    ``ru_maxrss`` would not do: Linux carries it over ``exec`` from the memory
    the process had before, which, when the parent spawns with ``vfork``, is
    the parent's. ``VmHWM`` belongs to the current address space only.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the kernel reports kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=list(WORKLOADS))
    parser.add_argument("seed", type=int, help="the config seed of the run")
    args = parser.parse_args()
    sp = import_spikeopt()
    data = workload_config(args.workload, args.seed)
    sample = run_once(sp, data, OUT_DIR / args.workload / "peak_rss")
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "f_g_sha256": f_g_digest(sample.trace.f_g)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
