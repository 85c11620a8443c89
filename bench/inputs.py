"""Seeded workload inputs and the expectations they are checked against.

Nothing here imports ``wco``: every expected verdict, every self-map
interval and every regime descriptor is recomputed from the closed forms,
so the benchmark's correctness gate shares no code with the program it
checks.

Closed forms used (see the README of the package under test):

* binomial family, lam in (0, 1]: psi = c (1 - lam conj(a0) z)^(-eta) and
  phi = a0 + a1 z / (1 - lam conj(a0) z); phi maps the unit disk into
  itself iff a1 lies in [(1 + m lam)(m - 1), (1 - m)(1 - m lam)], m = |a0|;
* exponential (Fock) family: psi = c exp(conj(a0) z / b^2), phi = a0 + a1 z,
  a self-map iff |a0| + |a1| <= 1;
* Dirichlet weights (beta(j)^2 = j + 1) and flat weights (beta(j) = level
  > 1 for j >= 1) are inhospitable: no nontrivial candidate is Hermitian.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import sys

#: smallest positive normal double; values below it are subnormal
FLOAT_TINY = sys.float_info.min

CLI_ORDER = 64
REPORT_ORDER = 512
SWEEP_ORDER = 384
SWEEP_LAM = 0.3
SWEEP_ETA = 1.5
SWEEP_WORKERS = 2

#: checks an inhospitable candidate must fail (besides the exit code 1)
INHOSPITABLE_FAILING = ("hermitian-deviation", "generating-ode", "kernel-identity")

#: cli-check family mix, each entry appearing twice per pool
CLI_VARIANTS = (
    "hardy",
    "bergman-0.5",
    "bergman-2",
    "bergman-3",
    "fock",
    "binomial",
    "dirichlet",
    "flat",
)


def rng_for(workload: str, seed: int) -> random.Random:
    # string seeding goes through SHA-512, so it is stable across processes
    # and interpreter versions (unlike hash()-based seeding)
    return random.Random(f"wco-bench:{workload}:{seed}")


def complex_arg(z: complex) -> str:
    """A complex literal for ``--a0=...`` that round-trips exactly."""
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def selfmap_interval(m: float, lam: float) -> tuple[float, float]:
    """Exact a1-interval of the rational phi on the unit disk (m = |a0| < 1)."""
    return (1.0 + m * lam) * (m - 1.0), (1.0 - m) * (1.0 - m * lam)


def _a1_inside(rng: random.Random, m: float, lam: float) -> float:
    lo, hi = selfmap_interval(m, lam)
    frac = rng.uniform(0.2, 0.9)
    return frac * hi if rng.random() < 0.5 else frac * lo


def _c(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)


def _a0(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))


# ---------------------------------------------------------------------------
# subnormal census of the closed-form symbols


def _is_subnormal(x: float) -> bool:
    return 0.0 < abs(x) < FLOAT_TINY


def count_subnormal(coeffs) -> int:
    """Coefficients with a subnormal real or imaginary part."""
    return sum(
        1 for z in coeffs if _is_subnormal(z.real) or _is_subnormal(z.imag)
    )


def binomial_symbol_coeffs(lam, eta, a0, a1, c, order):
    """psi and phi coefficients of a binomial pair, by the same recurrences
    the closed forms define (not by calling the package)."""
    ratio = lam * complex(a0).conjugate()
    psi = [1.0 + 0j]
    for j in range(order):
        psi.append(psi[-1] * ratio * (eta + j) / (j + 1))
    psi = [c * p for p in psi]
    phi = [complex(a0)] + [a1 * ratio**k for k in range(order)]
    return psi, phi


def tail_decades(lam: float, a0: complex, order: int) -> float:
    """N log10(1/(lam |a0|)): decades the geometric symbol tails fall
    across the section; above ~308 they leave normal double range."""
    return order * math.log10(1.0 / (lam * abs(a0)))


# ---------------------------------------------------------------------------
# cli-check


def cli_candidate(rng: random.Random, variant: str) -> dict:
    """One ``wco check`` argv for ``variant``, with what its verdict must be."""
    args = ["check"]
    lam = eta = None
    if variant == "fock":
        b = rng.uniform(0.8, 1.4)
        a0 = _a0(rng, 0.1, 0.6)
        a1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.9) * (1.0 - abs(a0))
        args += ["--family", "fock", f"--b={b!r}"]
        hospitable = True
    elif variant in ("dirichlet", "flat"):
        a0 = _a0(rng, 0.2, 0.6)
        a1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4)
        args += ["--family", variant]
        if variant == "flat":
            args.append(f"--level={rng.uniform(1.5, 3.0)!r}")
        hospitable = False
    else:
        if variant == "binomial":
            lam, eta = rng.uniform(0.3, 0.9), rng.uniform(0.5, 3.0)
            args += ["--family", "binomial", f"--lam={lam!r}", f"--eta={eta!r}"]
        elif variant == "hardy":
            lam, eta = 1.0, 1.0
            args += ["--family", "hardy"]
        else:
            lam, eta = 1.0, float(variant.split("-", 1)[1])
            args += ["--family", "bergman", f"--eta={eta!r}"]
        a0 = _a0(rng, 0.2, 0.7)
        a1 = _a1_inside(rng, abs(a0), lam)
        hospitable = True
    c = _c(rng)
    args += [f"--a0={complex_arg(a0)}", f"--a1={a1!r}", f"--c={c!r}"]
    return {
        "variant": variant,
        "kind": (
            "inhospitable" if not hospitable
            else "fock" if lam is None
            else "lam_1" if lam == 1.0 else "lam_lt1"
        ),
        "argv": args,
        "hospitable": hospitable,
        "lam": lam,
        "eta": eta,
        "a0": a0,
        "a1": a1,
        "c": c,
    }


def cli_pool(seed: int) -> list[dict]:
    rng = rng_for("cli-check", seed)
    pool = [cli_candidate(rng, v) for v in CLI_VARIANTS for _ in range(2)]
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# report-large


def report_pool(seed: int) -> list[dict]:
    """Eight N = 512 binomial pairs: six lam < 1 (dilation-conjugation path),
    two lam = 1, eta > 1 (disk-quadrature path).  lam |a0| stays in
    [0.5, 0.8], so every symbol coefficient is a normal double."""
    rng = rng_for("report-large", seed)
    pool = []
    for k in range(8):
        # stratified draws: every seed covers the same spread of tail decay
        # rates, so the seed moves the cost of a pool only a little
        u = rng.uniform(0.2, 0.8)
        if k < 6:
            lam = 0.6 + 0.35 * (k + u) / 6
            m = min((0.5 + 0.3 * (k + rng.uniform(0.2, 0.8)) / 6) / lam, 0.95)
            eta = rng.uniform(0.5, 3.0)
        else:
            lam, eta = 1.0, rng.uniform(1.25, 3.0)
            m = 0.5 + 0.15 * (k - 6 + u)
        a0 = cmath.rect(m, rng.uniform(0.0, 2.0 * math.pi))
        pool.append({
            "variant": "lam_lt1" if lam < 1.0 else "lam_1",
            "kind": "lam_lt1" if lam < 1.0 else "lam_1",
            "lam": lam,
            "eta": eta,
            "a0": a0,
            "a1": _a1_inside(rng, m, lam),
            "c": _c(rng),
            "hospitable": True,
        })
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# sweep-grid


def sweep_configs(seed: int) -> list[dict]:
    """Four 4-cell sweep configs at N = 384, lam = 0.3, eta = 1.5.

    One a0_mod is drawn below 0.4 and one in [0.4, 0.6], so lam |a0| <= 0.18
    everywhere and at least the smaller modulus drives the symbol tails into
    subnormal range."""
    rng = rng_for("sweep-grid", seed)
    configs = []
    for k in range(4):
        # stratified moduli: the low ones tile [0.2, 0.4), the high ones
        # [0.4, 0.6], so each seed spans the same range of tail decay
        low = 0.2 + 0.05 * (k + rng.uniform(0.2, 0.8))
        high = 0.4 + 0.05 * (k + rng.uniform(0.2, 0.8))
        configs.append({
            "space": {"family": "binomial", "lambda": SWEEP_LAM, "eta": SWEEP_ETA},
            "grid": {
                "a0_mod": [low, high],
                "a0_arg": [rng.uniform(0.0, 2.0 * math.pi)],
                "a1_fraction": [-rng.uniform(0.2, 0.9), rng.uniform(0.2, 0.9)],
                "c": [_c(rng)],
            },
            "order": SWEEP_ORDER,
            "seed": seed,
        })
    return configs


def sweep_cells(config: dict) -> list[dict]:
    """The grid cells in the package's documented order (a0_mod, a0_arg,
    a1_fraction, c; last axis fastest), with their closed-form a1."""
    g = config["grid"]
    lam = config["space"]["lambda"]
    cells = []
    for m in g["a0_mod"]:
        for arg in g["a0_arg"]:
            for frac in g["a1_fraction"]:
                for c in g["c"]:
                    lo, hi = selfmap_interval(m, lam)
                    cells.append({
                        "a0": cmath.rect(m, arg),
                        "a1": frac * hi if frac >= 0 else -frac * lo,
                        "c": c,
                    })
    return cells


# ---------------------------------------------------------------------------
# regime descriptors


def describe(workload: str, seed: int) -> dict:
    """N, family mix, tail-decade range and subnormal census of the inputs;
    the last two over the binomial pairs (Fock, Dirichlet and flat symbols
    have no geometric tail)."""
    if workload == "cli-check":
        order, items = CLI_ORDER, cli_pool(seed)
    elif workload == "report-large":
        order, items = REPORT_ORDER, report_pool(seed)
    else:
        order, items = SWEEP_ORDER, [
            {"variant": "lam_lt1", "lam": SWEEP_LAM, "eta": SWEEP_ETA, **cell}
            for config in sweep_configs(seed)
            for cell in sweep_cells(config)
        ]
    mix: dict[str, int] = {}
    decades, subnormal = [], 0
    for p in items:
        mix[p["variant"]] = mix.get(p["variant"], 0) + 1
        if p["lam"] is None:
            continue
        decades.append(tail_decades(p["lam"], p["a0"], order))
        psi, phi = binomial_symbol_coeffs(p["lam"], p["eta"], p["a0"], p["a1"], p["c"], order)
        subnormal += count_subnormal(psi) + count_subnormal(phi)
    return {
        "order": order,
        "family_mix": mix,
        "tail_decades": [min(decades), max(decades)],
        "subnormal_coeffs": subnormal,
    }


def check_regime(workload: str, descriptor: dict) -> None:
    """Refuse a workload whose inputs left their arithmetic regime."""
    n = descriptor["subnormal_coeffs"]
    if workload == "report-large" and n != 0:
        raise SystemExit(
            f"regime guard: report-large must stay in normal arithmetic, "
            f"but its symbols have {n} subnormal coefficients"
        )
    if workload == "sweep-grid" and n == 0:
        raise SystemExit(
            "regime guard: sweep-grid must exercise subnormal arithmetic, "
            "but its symbols have no subnormal coefficient"
        )


# ---------------------------------------------------------------------------
# expectations


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_verdict(cand: dict, rc: int, stdout: str) -> str | None:
    """None when a ``wco check`` result matches the candidate's expectation,
    else a one-line reason."""
    try:
        payload = strict_json_loads(stdout)
    except ValueError as exc:
        return f"{cand['variant']}: output is not strict JSON ({exc})"
    verdicts = {c["name"]: c["pass"] for c in payload.get("checks", [])}
    if cand["hospitable"]:
        if rc != 0 or payload.get("pass") is not True:
            failing = sorted(k for k, v in verdicts.items() if not v)
            return f"{cand['variant']}: expected a pass, got exit {rc}, failing {failing}"
        return None
    if rc != 1 or payload.get("pass") is not False:
        return f"{cand['variant']}: expected exit 1 and a failed report, got exit {rc}"
    still_passing = [n for n in INHOSPITABLE_FAILING if verdicts.get(n) is not False]
    if still_passing:
        return f"{cand['variant']}: checks {still_passing} did not fail"
    return None


def check_sweep(config: dict, rc: int, stdout: str) -> str | None:
    """Every row passes, in grid order, with the closed-form a1."""
    try:
        payload = strict_json_loads(stdout)
    except ValueError as exc:
        return f"sweep output is not strict JSON ({exc})"
    cells = sweep_cells(config)
    rows = payload.get("rows", [])
    if rc != 0 or payload.get("pass") is not True:
        return f"sweep exit {rc}, pass {payload.get('pass')}"
    if len(rows) != len(cells):
        return f"sweep returned {len(rows)} rows for {len(cells)} cells"
    for index, (row, cell) in enumerate(zip(rows, cells)):
        if row.get("index") != index or row.get("pass") is not True:
            return f"sweep row {index} failed or out of order"
        if abs(row["a1"] - cell["a1"]) > 1e-12 * max(1.0, abs(cell["a1"])):
            return f"sweep row {index}: a1 {row['a1']} != closed form {cell['a1']}"
    return None
