"""The wco benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload {cli-check,report-large,sweep-grid,all}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the checkout is the directory above this file, and the
program is imported or started from its ``src`` tree only.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs the same operations
in-process with spans around every layer and reports per-layer metrics.
The full record, with provenance, goes to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import inputs
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: a measured run lasts --seconds and at least this many operations, so the
#: tail percentile below is always defined and never under p50
MIN_SAMPLES = 20
#: the tail latency is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
#: repetitions of the import-time and interpreter probes in a traced run
IMPORT_REPEATS = 5

PROBE_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# statistics


def tail_latency(samples: list[float], beyond: int = TAIL_BEYOND):
    """(percentile, value) of the highest percentile with at least ``beyond``
    samples above it, i.e. the (beyond + 1)-th largest sample; None when
    there are too few samples."""
    n = len(samples)
    if n <= beyond:
        return None
    k = n - beyond - 1
    return 100.0 * (k + 1) / n, sorted(samples)[k]


def cpu_seconds() -> float:
    """CPU time of this process and of every child it waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# provenance


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wco").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, program: dict, descriptor: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **program,
        "seed": seed,
        "workload": descriptor,
    }


# ---------------------------------------------------------------------------
# measured run (tracing off)


def probe_setup(name: str, seed: int) -> tuple[float, dict]:
    """Wall time of one fresh-interpreter set-up, and the program info."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py"), name, str(seed)],
        cwd=ROOT, env=workloads.program_env(ROOT),
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"set-up of {name} failed: {proc.stderr.strip()[-2000:]}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


def attempt(fn) -> str | None:
    """One operation; an exception is a failed operation, not a crash."""
    try:
        return fn()
    except Exception as exc:  # the loop must go on and count it
        return f"{type(exc).__name__}: {exc}"


def measured_run(name: str, seed: int, seconds: float) -> dict:
    setups, program = [], {}
    for _ in range(SETUP_REPEATS):
        elapsed, program = probe_setup(name, seed)
        setups.append(elapsed)
    workload = workloads.WORKLOADS[name](ROOT, seed)
    errors = [e for e in [attempt(lambda: workload.run(0))] if e]  # warm-up
    warmup_failed = len(errors)
    latencies, cpu = [], []
    start = perf_counter()
    i = 0
    while True:
        c0, t0 = cpu_seconds(), perf_counter()
        error = attempt(lambda: workload.run(i))
        latencies.append(perf_counter() - t0)
        cpu.append(cpu_seconds() - c0)
        if error:
            errors.append(error)
        i += 1
        if perf_counter() - start >= seconds and i >= MIN_SAMPLES:
            break
    wall = perf_counter() - start
    attempted = len(latencies) + 1
    loop_failed = len(errors) - warmup_failed
    tail = tail_latency(latencies)
    units = len(latencies) * workload.cells_per_op
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((len(latencies) - loop_failed) * workload.cells_per_op / wall, "1/s"),
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.tail": (tail[1], "s"),
        "cpu_s_per_op": (sum(cpu) / units, "s"),
        "correct_frac": ((attempted - len(errors)) / attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "attempted": attempted,
        "errors": errors,
        "metrics": metrics,
        "program": program,
        "detail": {
            "samples": len(latencies),
            "cells_per_op": workload.cells_per_op,
            "tail_percentile": tail[0],
            "fail_frac": len(errors) / attempted,
            "setup_samples_s": setups,
            "timed_wall_s": wall,
        },
        "samples": {"latency_s": latencies, "cpu_s": cpu},
    }


# ---------------------------------------------------------------------------
# traced run


def _median_run(argv: list[str], repeats: int) -> tuple[float, list[str]]:
    times, stderrs = [], []
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=workloads.program_env(ROOT),
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"{argv} failed: {proc.stderr.strip()[-2000:]}")
        stderrs.append(proc.stderr)
    return statistics.median(times), stderrs


def import_breakdown() -> dict[str, float]:
    """Interpreter start-up and the import of numpy, scipy and wco."""
    interpreter, _ = _median_run([sys.executable, "-c", "pass"], IMPORT_REPEATS)
    _, stderrs = _median_run([sys.executable, "-X", "importtime", "-c", "import wco"],
                             IMPORT_REPEATS)
    out = {"cli.interpreter_s": interpreter}
    for package, others in (("numpy", ("scipy",)), ("scipy", ("numpy",)), ("wco", ())):
        out[f"cli.import.{package}_s"] = statistics.median(
            tracing.outermost_import_times(err, package, others) for err in stderrs
        )
    return out


def _count_subnormal_symbols(tracer: tracing.Tracer, sp) -> None:
    n = sum(inputs.count_subnormal(s.coeffs) for s in (sp.psi, sp.phi))
    tracer.count("symbols.subnormal_coeffs", n)


#: per-layer metrics reported as calls per operation
CALL_METRICS = ("series.mul", "series.compose_poly", "spaces.quadrature",
                "operators.build_matrix")
#: per-layer metrics reported as self seconds per operation
SELF_METRICS = (
    "series.mul", "series.compose_poly", "series.div",
    "spaces.family_weights", "spaces.classify_weights", "spaces.kernel",
    "spaces.quadrature", "symbols.synthesize", "symbols.selfmap_interval",
    "operators.build_matrix", "operators.kernel_identity_residual",
    "operators.conjugation_check", "operators.kernel_tail_bound",
    "operators.finite_section_norm", "operators.checks",
    "verify.ode_residual", "verify.full_report", "cli.sweep_cell", "cli.main",
)


def traced_run(name: str, seed: int, seconds: float) -> dict:
    imports = import_breakdown()
    workloads.import_program(ROOT)
    workload = workloads.WORKLOADS[name](ROOT, seed)
    pool = workload.size
    errors: list[str] = []
    tracer = tracing.Tracer()
    hooks = {"symbols.synthesize": _count_subnormal_symbols}

    def one_pass(traced: bool) -> float:
        elapsed = 0.0
        if traced:
            tracer.install(hooks)
        try:
            for i in range(pool):
                if traced:
                    fn = lambda: tracer.op(workload.label(i), lambda: workload.inprocess(i))
                else:
                    fn = lambda: workload.inprocess(i)
                t0 = perf_counter()
                error = attempt(fn)
                elapsed += perf_counter() - t0
                errors.extend([error] if error else [])
        finally:
            if traced:
                tracer.uninstall()
        return elapsed

    one_pass(traced=False)  # warm-up: lazy imports and caches of every op
    attempted, ops = pool, 0
    spent = {False: 0.0, True: 0.0}  # untraced / traced seconds
    start = perf_counter()
    # whole passes over the input pool, untraced and traced in alternating
    # order, so counts per operation are exact and the overhead compares the
    # same operations under the same drift
    while True:
        pass_start = perf_counter()
        for traced in ((False, True) if ops % (2 * pool) == 0 else (True, False)):
            spent[traced] += one_pass(traced)
        ops += pool
        attempted += 2 * pool
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    plain_s, traced_s = spent[False], spent[True]

    units = ops * workload.cells_per_op
    totals = tracer.layer_totals()
    zero = {"calls": 0, "self_s": 0.0}
    metrics: dict[str, tuple[float, str]] = {}
    for layer in CALL_METRICS:
        metrics[f"{layer}.calls"] = (totals.get(layer, zero)["calls"] / units, "count/op")
    for layer in SELF_METRICS:
        metrics[f"{layer}.self_s"] = (totals.get(layer, zero)["self_s"] / units, "s/op")
    metrics["symbols.subnormal_coeffs"] = (
        tracer.counts.get("symbols.subnormal_coeffs", 0) / units, "count/op")
    chains = tracer.calls_per_label(tracing.POWER_CHAIN_LAYERS)
    metrics["operators.power_chains_per_op"] = (
        sum(c for _, c in chains.values()) / units, "count/op")
    for kind in ("lam_lt1", "lam_1"):
        n_ops, calls = chains.get(kind, (0, 0))
        metrics[f"operators.power_chains_per_op.{kind}"] = (
            calls / n_ops if n_ops else 0.0, "count/op")
    for key, value in imports.items():
        metrics[key] = (value, "s")
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / units, "s/op")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.json"
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"labels": tracer.labels, "spans": tracer.spans}, handle)
    return {
        "attempted": attempted,
        "errors": errors,
        "metrics": metrics,
        "program": workloads.program_info(),
        "detail": {
            "ops": ops,
            "cells_per_op": workload.cells_per_op,
            "spans": len(tracer.spans),
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "power_chains_by_kind": chains,
            "untraced_layers": tracer.missing,
            "spans_file": spans_path.relative_to(ROOT).as_posix(),
        },
    }


# ---------------------------------------------------------------------------
# command line


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    descriptor = inputs.describe(name, seed)
    inputs.check_regime(name, descriptor)
    result = (traced_run if trace else measured_run)(name, seed, seconds)
    result["provenance"] = provenance(seed, result.pop("program"), descriptor)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"workload": name, **result, **result_line(result)},
                                 indent=1, default=str))
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"attempted {result['attempted']}  failed {len(result['errors'])}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    for key, value in result["detail"].items():
        print(f"  # {key}: {value}")
    for error in result["errors"][:10]:
        print(f"  ! {error}")
    print("provenance " + json.dumps(result["provenance"], default=str))
    return result


def result_line(result: dict) -> dict:
    failed = len(result["errors"])
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); the
    combined line prefixes every metric with its workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for key, metric in line["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wco" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'wco'} is missing",
              file=sys.stderr)
        return 2
    # the build: byte-compile the sources once, outside every timed region
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
