"""Rewrite the pinned outputs in ``pins.json`` from the current sources.

For every workload and every pinned seed (the rotation and the held-out
seed), one unit is made and its output hashes (or, for ``oracle``, its
exact estimates and the rounds its escape estimator simulates) are stored.
Run it only when a change is meant to alter the output, and say so where
the change is described:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
from pathlib import Path

import run


def pin_one(task: tuple[str, int]) -> tuple[str, int, dict]:
    name, seed = task
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        return name, seed, run.pin(run.WORKLOADS[name], seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    pins = run.load_pins()
    seeds = pins["rotation"] + [pins["held_out"]]
    tasks = [(name, seed) for name in sorted(run.WORKLOADS) for seed in seeds]
    workloads = {name: {} for name in sorted(run.WORKLOADS)}
    processes = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("spawn").Pool(processes) as pool:
        for name, seed, pinned in pool.imap_unordered(pin_one, tasks):
            workloads[name][str(seed)] = pinned
            print(f"pinned {name} seed {seed}", flush=True)
    pins["workloads"] = {
        name: dict(sorted(by_seed.items(), key=lambda item: int(item[0])))
        for name, by_seed in workloads.items()
    }
    run.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
