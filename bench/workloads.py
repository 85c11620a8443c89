"""The three workloads: what one operation is, and how its output is checked.

Every workload is a closed loop from one benchmark process: the next operation
starts when the previous one has returned.  Inputs come from `inputs` and
depend only on the seed.

* ``cli-check`` -- one ``python -m wco.cli check`` subprocess at N = 64,
  cycling through all six families.  Interpreter start-up and the
  numpy/scipy import are most of each call, so import or CLI changes show
  here and power-chain changes should not.
* ``report-large`` -- one in-process ``verify.full_report`` at N = 512 on a
  binomial pair in normal arithmetic.  The operators/series power chains
  do most of the work.
* ``sweep-grid`` -- one ``python -m wco.cli sweep --workers 2`` subprocess
  over four N = 384 cells whose symbol tails are subnormal.  Many
  independent mid-size matrices go through the process pool; no kernel,
  ODE, quadrature or conjugation runs.

`run` is the measured form of an operation.  `inprocess` is the form the
traced run uses: the same argv through ``wco.cli.main`` (sweeps with
``--workers 1``), so every layer executes in this process.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import inputs

OP_TIMEOUT_S = 120


def program_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("WCO_DEFAULT_ORDER", None)
    return env


def import_program(root: Path):
    """Import ``wco`` from the checkout (never from an installed copy)."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import wco
    import wco.cli

    if Path(wco.__file__).resolve().parent != (root / "src" / "wco").resolve():
        raise SystemExit(f"imported wco from {wco.__file__}, not from {root / 'src'}")
    return wco


def run_cli(root: Path, argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "wco.cli", *argv],
        cwd=root,
        env=program_env(root),
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def call_main(argv: list[str]) -> tuple[int, str]:
    import wco.cli

    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = wco.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


class CliCheck:
    name = "cli-check"
    cells_per_op = 1

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.pool = inputs.cli_pool(seed)
        self.size = len(self.pool)

    def _argv(self, i: int) -> list[str]:
        return self.pool[i % len(self.pool)]["argv"] + [f"--order={inputs.CLI_ORDER}"]

    def label(self, i: int) -> str:
        return self.pool[i % len(self.pool)]["kind"]

    def run(self, i: int) -> str | None:
        rc, out = run_cli(self.root, self._argv(i))
        return inputs.check_verdict(self.pool[i % len(self.pool)], rc, out)

    def inprocess(self, i: int) -> str | None:
        rc, out = call_main(self._argv(i))
        return inputs.check_verdict(self.pool[i % len(self.pool)], rc, out)


class ReportLarge:
    name = "report-large"
    cells_per_op = 1

    def __init__(self, root: Path, seed: int):
        wco = import_program(root)
        self.pool = inputs.report_pool(seed)
        self.size = len(self.pool)
        self.weights = [
            wco.family_weights(
                wco.Binomial(lam=p["lam"], eta=p["eta"], gamma=(p["eta"] + 1.0) / p["eta"]),
                inputs.REPORT_ORDER,
            )
            for p in self.pool
        ]

    def label(self, i: int) -> str:
        return self.pool[i % len(self.pool)]["kind"]

    def run(self, i: int) -> str | None:
        k = i % len(self.pool)
        p = self.pool[k]
        # looked up at call time, so the traced run sees the rebound name
        import wco.verify

        report = wco.verify.full_report(self.weights[k], p["a0"], p["a1"], p["c"])
        if not report.passed:
            failing = [c.name for c in report.checks if not c.passed]
            return f"{p['variant']} lam={p['lam']:.4g}: report failed {failing}"
        try:
            inputs.strict_json_loads(json.dumps(report.to_dict()))
        except ValueError as exc:
            return f"{p['variant']}: report is not strict JSON ({exc})"
        return None

    inprocess = run


class SweepGrid:
    name = "sweep-grid"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.configs = inputs.sweep_configs(seed)
        self.size = len(self.configs)
        self.cells_per_op = len(inputs.sweep_cells(self.configs[0]))
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        self.paths = []
        for k, config in enumerate(self.configs):
            path = out / f"sweep-seed{seed}-{k}.json"
            path.write_text(json.dumps(config))
            self.paths.append(str(path))

    def label(self, i: int) -> str:
        return "sweep"

    def _check(self, i: int, rc: int, out: str) -> str | None:
        return inputs.check_sweep(self.configs[i % len(self.configs)], rc, out)

    def run(self, i: int) -> str | None:
        argv = ["sweep", "--config", self.paths[i % len(self.paths)],
                "--workers", str(inputs.SWEEP_WORKERS)]
        return self._check(i, *run_cli(self.root, argv))

    def inprocess(self, i: int) -> str | None:
        argv = ["sweep", "--config", self.paths[i % len(self.paths)], "--workers", "1"]
        return self._check(i, *call_main(argv))


WORKLOADS = {w.name: w for w in (CliCheck, ReportLarge, SweepGrid)}


def program_info() -> dict:
    """Versions of the program and its numeric stack, BLAS and its threads."""
    import numpy
    import scipy
    import wco

    info = {
        "wco": wco.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        }
    except (TypeError, KeyError):  # numpy builds without the dict form
        info["blas"] = None
    return info
