"""Measure what a process pool would save `wco sweep`.

`wco sweep` runs every cell in its own process.  For each grid below, a
fresh interpreter collects the sweep's cells (through `wco.cli.main`, with
`_sweep_cell` swapped for a recorder) and then times one of two forms,
alternating which goes first: every cell in that process, or the cells
handed to a `ProcessPoolExecutor` of min(2, cells) workers, as the pool
that earlier versions started for `--workers 2` (the timing includes
importing the pool, starting it and shutting it down).  A grid's cell work
is the in-process time.  The crossover is the cell work above which the
pool saved time on every grid measured: the last change of sign of the
saving, interpolated linearly between the grids on either side.  Also
times, in fresh interpreters that have imported `wco.cli`, importing the
pool on its own and starting a 2-process pool, sending it one cell and
shutting it down.

    python3 scripts/pool_crossover.py [--repeats 10] [--output crossover.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

#: collects the cells of the sweep in argv[2:], then prints the seconds that
#: running them takes in the form argv[1] ("in_process" or "pool")
RUN_CELLS = """
import contextlib, io, sys, time, wco.cli as cli
form, argv, cells, cell = sys.argv[1], sys.argv[2:], [], cli._sweep_cell
cli._sweep_cell = lambda c: cells.append(c) or {"index": c[0], "pass": True}
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
cli._sweep_cell = cell
start = time.perf_counter()
if form == "pool":
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(2, len(cells))) as pool:
        list(pool.map(cell, cells))
else:
    [cell(c) for c in cells]
print(time.perf_counter() - start)
"""
POOL_IMPORT = (
    "import time, wco.cli; t = time.perf_counter(); "
    "from concurrent.futures import ProcessPoolExecutor; "
    "print(time.perf_counter() - t)"
)
POOL_START = (
    "import time, wco.cli; from concurrent.futures import ProcessPoolExecutor; "
    "cell = (0, 'binomial', (0.3, 1.5), 0.3, 0.0, 0.5, 1.0, 16); "
    "t = time.perf_counter(); pool = ProcessPoolExecutor(max_workers=2); "
    "list(pool.map(wco.cli._sweep_cell, [cell])); pool.shutdown(); "
    "print(time.perf_counter() - t)"
)


def binomial_grid(order: int, cells: int) -> dict:
    """`cells` cells at lam = 0.3, eta = 1.5, |a0| in [0.2, 0.6]: the symbol
    tails reach subnormal range, as on the benchmark's sweep-grid."""
    return {
        "space": {"family": "binomial", "lambda": 0.3, "eta": 1.5},
        "grid": {
            "a0_mod": {"start": 0.2, "stop": 0.6, "count": cells // 2},
            "a0_arg": [1.0],
            "a1_fraction": [-0.5, 0.5],
            "c": [1.0],
        },
        "order": order,
    }


#: the README's sweep config: 72 cells at N = 64
README_GRID = {
    "space": {"family": "binomial", "lambda": 0.5, "eta": 1.0},
    "grid": {
        "a0_mod": [0.2, 0.4, 0.6],
        "a0_arg": {"start": 0.0, "stop": 3.14, "count": 4},
        "a1_fraction": [-0.6, 0.25, 0.8],
        "c": [1.0, -0.7],
    },
    "order": 64,
}

EXPENSIVE_SPACE = {"family": "binomial", "lambda": 0.9, "eta": 1.0}

GRIDS = {
    "readme-72-cells-N64": README_GRID,
    **{f"{k}-cells-N384": binomial_grid(384, k) for k in (4, 8, 16, 24, 32, 48, 64)},
    "16-cells-N512": binomial_grid(512, 16),
    # a few expensive cells, one or two for each worker of the pool (at
    # lam = 0.3 the generating coefficients underflow to 0 before N = 1500)
    **{f"{k}-cells-N1500": {**binomial_grid(1500, k), "space": EXPENSIVE_SPACE}
       for k in (2, 4)},
}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            return next(line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return None


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def child_value(*argv: str) -> float:
    out = subprocess.run([sys.executable, "-c", *argv], env=ENV, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return float(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--output", type=str, default=None)
    opts = parser.parse_args()

    runs = {name: {"in_process": [], "pool": []} for name in GRIDS}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in GRIDS}
        for name, config in GRIDS.items():
            paths[name].write_text(json.dumps(config))
        # every repeat visits every grid, so a slow drift of the host's load
        # spreads over all of them instead of landing on one
        forms = ["in_process", "pool"]
        for rep in range(opts.repeats):
            for name in GRIDS:
                for form in forms[:: 1 if rep % 2 == 0 else -1]:
                    runs[name][form].append(child_value(
                        RUN_CELLS, form, "sweep", "--config", str(paths[name])))

    rows = []
    for name, config in GRIDS.items():
        row = {"grid": name, "order": config["order"]}
        for form, times in runs[name].items():
            row[f"{form}_s"] = summary(times)
        row["cell_work_s"] = row["in_process_s"]["median"]
        row["pool_saving_s"] = row["cell_work_s"] - row["pool_s"]["median"]
        rows.append(row)
        print(f"{name:20s} in process {row['cell_work_s']:.3f} s, "
              f"pool {row['pool_s']['median']:.3f} s", file=sys.stderr)

    rows.sort(key=lambda r: r["cell_work_s"])
    crossover = None
    for lo, hi in zip(rows, rows[1:]):
        if lo["pool_saving_s"] <= 0.0 < hi["pool_saving_s"]:
            t = -lo["pool_saving_s"] / (hi["pool_saving_s"] - lo["pool_saving_s"])
            crossover = lo["cell_work_s"] + t * (hi["cell_work_s"] - lo["cell_work_s"])
    result = {
        "machine": {"platform": platform.platform(), "cpu": cpu_model(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "repeats": opts.repeats,
        "pool_import_s": summary([child_value(POOL_IMPORT) for _ in range(opts.repeats)]),
        "pool_start_one_cell_shutdown_s": summary(
            [child_value(POOL_START) for _ in range(opts.repeats)]),
        "grids": rows,
        "crossover_cell_work_s": crossover,
    }
    text = json.dumps(result, indent=2)
    if opts.output:
        Path(opts.output).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
