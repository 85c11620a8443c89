"""Command-line surface: classify, check, region, sweep, quad, report.

Output is JSON by default (CSV where it makes sense for tables); exit codes
follow the verification contract: 0 all checks passed, 1 some check failed,
2 usage or domain error.  `check`, `report`, `quad` and `classify
--beta-file` read their weights at one order (`_weights_from_args`) and
classify them by their coefficient ratios (`spaces.classify_weights`);
`classify BETA1 BETA2` classifies the order-2 weights (1, BETA1, BETA2),
`sweep` builds its space and class from its config (`SWEEP_FAMILIES`), and
`region` reads no weights.  A `--family` is an entry of `FAMILIES`, which
alone says which parameters the family reads, their defaults and how its
weights are built.  Every verdict is a report check: `check` and `report`
print `verify.full_report`, a `sweep` row reads its section's
`verify.section_checks` and `quad` its `verify.quadrature_check`.  No option
overrides their thresholds, `verify.DEFAULT_TOLERANCES` and the classifier's
`spaces.CLASSIFICATION_TOL` and `spaces.FIT_TOL`.
`sweep` reads its space, grid and order from its config only, and writes to
`--output` (else stdout).  It runs its cells one after another in this
process; `--workers` is still accepted (an integer >= 1) so that existing
command lines run, but it starts no other process.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import itertools
import json
import math
import re
import sys

import numpy as np

from . import operators, spaces, symbols, verify
from .series import TruncatedSeries, is_json_number, require_finite, series_from_json
from .spaces import (
    Binomial,
    Exponential,
    NotHospitable,
    QuadratureError,
    WeightSequence,
    bergman_weights,
    classify_weights,
    dirichlet_weights,
    family_weights,
    flat_weights,
    fock_weights,
    hardy_weights,
    space_class_to_json,
    weights_from_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_ORDER = 64


def valid_order(value, name: str) -> int:
    """A truncation order: an integer >= 2, since classification reads
    beta(2).  ``name`` is the option or config key the value came from."""
    if type(value) is not int or value < 2:  # bool is not an order either
        raise ValueError(f"{name} must be an integer >= 2 (got {value!r})")
    return value


# ---------------------------------------------------------------------------
# parsing helpers


def parse_complex(text: str) -> complex:
    """Complex literals: '0.5', '-0.3+0.2i', '1.2i', with i or j; finite only."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"complex number {text!r} is not finite")
    return value


def finite_float(text: str) -> float:
    """Real literals for the float options and positionals; finite only."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"number {text!r} is not finite")
    return value


_TERM_RE = re.compile(
    r"""^
    (?P<sign>[+-]?)
    (?P<coeff>\([^)]*\)|[^z*()]+)?         # number or parenthesized complex
    (?:\*?(?P<z>z(\^(?P<pow>\d+))?))?      # optional z^k
    $""",
    re.VERBOSE,
)


def parse_polynomial(text: str, order: int) -> TruncatedSeries:
    """Tiny polynomial grammar: sums of coeff*z^k terms.

    Coefficients are finite real or complex literals ('2', '-0.5',
    '(1+2i)'); examples: 'z^3', '1 + 0.5*z - (0.25+1i)*z^2'.  A power named
    once gets its coefficient bitwise, signed zeros included.
    """
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty polynomial")
    # split on top-level +/- (never inside parentheses, never a leading sign)
    terms: list[str] = []
    depth, start = 0, 0
    for idx, ch in enumerate(stripped):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and idx > start:
            prev = stripped[idx - 1]
            if prev not in "+-*^(e":  # not an exponent sign or operator
                terms.append(stripped[start:idx])
                start = idx
    terms.append(stripped[start:])

    coeffs = np.zeros(order + 1, dtype=complex)
    seen: set[int] = set()
    for term in terms:
        match = _TERM_RE.match(term)
        if not match or (not match.group("coeff") and not match.group("z")):
            raise ValueError(f"cannot parse polynomial term {term!r}")
        coeff_text = (match.group("coeff") or "").strip("()")
        if not coeff_text:
            coeff = 1.0 + 0j
        else:
            try:
                coeff = complex(coeff_text.replace("i", "j"))
            except ValueError:
                raise ValueError(f"cannot parse coefficient in term {term!r}")
            if not cmath.isfinite(coeff):
                raise ValueError(f"coefficient in term {term!r} is not finite")
        if match.group("sign") == "-":
            coeff = -coeff
        if match.group("z"):
            power = int(match.group("pow") or 1)
        else:
            power = 0
        if power > order:
            raise ValueError(f"term {term!r} exceeds the truncation order {order}")
        # assigned on first sight: 0 + (-0.0) would drop the sign of a zero
        coeffs[power] = coeffs[power] + coeff if power in seen else coeff
        seen.add(power)
    return TruncatedSeries(coeffs)


#: the space options, in the order a run that ignores some names the first
SPACE_OPTIONS = ("family", "lam", "eta", "b", "level")
#: each --family: the parameters it reads, with their defaults (None: the
#: parameter is required), and its weights from them at an order; a
#: --beta-file reads no space option
FAMILIES = {
    "hardy": ({}, hardy_weights),
    "bergman": ({"eta": None}, bergman_weights),
    "fock": ({"b": 1.0}, fock_weights),
    "binomial": (
        {"lam": None, "eta": None},
        lambda lam, eta, order: family_weights(Binomial(lam=lam, eta=eta), order),
    ),
    "dirichlet": ({}, dirichlet_weights),
    "flat": ({"level": 2.0}, flat_weights),
}


def _weights_from_args(args) -> WeightSequence:
    """The weights a subcommand works on, at the one order of its run: a
    family of `FAMILIES` at --order (default 64); a --beta-file at its own
    order, cut when --order is smaller and refused, naming both orders, when
    it is larger.  A space option that the space does not read (--family or
    a parameter with --beta-file, another family's parameter) is refused,
    naming the first one in `SPACE_OPTIONS` order, so no verdict is given on
    a space that was not asked for; so is a family without a parameter it
    requires."""
    family = (getattr(args, "family", None) or "").lower()
    options, weights = FAMILIES.get(family, (SPACE_OPTIONS, None))
    if args.beta_file:
        space, read = "--beta-file", ()
    else:
        space, read = f"--family {family}", ("family", *options)
    for name in SPACE_OPTIONS:
        if getattr(args, name, None) is not None and name not in read:
            raise ValueError(f"--{name} is not read with {space}")
    if args.beta_file:
        with open(args.beta_file, "r", encoding="utf-8") as handle:
            ws = weights_from_json(json.load(handle))
        if args.order is None:
            return ws
        if args.order > ws.order:
            raise ValueError(f"--order {args.order} exceeds the weight file's order {ws.order}")
        return WeightSequence(ws.beta[: args.order + 1])
    if weights is None:
        raise ValueError(
            "specify a space: --beta-file FILE or --family {" + ",".join(FAMILIES) + "}"
        )
    given = {name: getattr(args, name) for name in options}
    values = {name: options[name] if value is None else value for name, value in given.items()}
    if None in values.values():  # a required parameter was not given
        required = [f"--{name}" for name, default in options.items() if default is None]
        verb = "is" if len(required) == 1 else "are"
        raise ValueError(f"{' and '.join(required)} {verb} required for the {family} family")
    return weights(**values, order=DEFAULT_ORDER if args.order is None else args.order)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False, allow_nan=False))


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    if args.beta1 is not None and (args.beta_file or args.order is not None):
        raise ValueError("BETA1 BETA2 are order-2 weights: give no --beta-file or --order")
    if args.beta_file:
        ws = _weights_from_args(args)
    elif args.beta1 is None or args.beta2 is None:
        raise ValueError("classify needs BETA1 BETA2 or --beta-file")
    else:
        ws = WeightSequence([1.0, args.beta1, args.beta2])
    cls = classify_weights(ws)
    _print_json(space_class_to_json(cls))
    return EXIT_OK if not isinstance(cls, NotHospitable) else EXIT_FAIL


def _report_for_args(args) -> verify.VerificationReport:
    return verify.full_report(_weights_from_args(args), args.a0, args.a1, args.c)


def cmd_check(args) -> int:
    report = _report_for_args(args)
    _print_json(report.to_dict())
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_report(args) -> int:
    report = _report_for_args(args)
    for line in report.lines():
        print(line)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"wrote {args.output}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_region(args) -> int:
    interval = symbols.selfmap_interval(args.a0, args.lam, args.rho)
    payload = {
        "a0_mod": interval.a0_mod,
        "lambda": interval.lam,
        "rho": interval.rho,
        "admissible": interval.admissible,
        "a1_min": interval.a1_min,
        "a1_max": interval.a1_max,
    }
    _print_json(payload)
    return EXIT_OK


def _polynomial_from_arg(text: str, order: int) -> TruncatedSeries:
    """Inline polynomial expression, or a path to a series JSON file: an
    argument ending in .json is always opened, so a missing file is named."""
    if text.endswith(".json"):
        with open(text, "r", encoding="utf-8") as handle:
            f = series_from_json(json.load(handle))
        return f.truncated(order) if f.order != order else f
    return parse_polynomial(text, order)


def _in_double_range(norm: float, name: str) -> float:
    """A norm whose square is a finite double; else ValueError naming the norm."""
    if not math.isfinite(norm * norm):
        raise ValueError(f"the {name} norm of f or its square leaves the double range")
    return norm


def cmd_quad(args) -> int:
    ws = _weights_from_args(args)
    cls = classify_weights(ws)
    f = _polynomial_from_arg(args.f, ws.order)
    series_norm = _in_double_range(spaces.norm(f, ws), "series")
    domain, q = spaces.integral_norm(cls, f)
    q = _in_double_range(q, "quadrature")
    check = verify.quadrature_check(domain, series_norm, q)
    _print_json({
        "f": args.f,
        "order": ws.order,
        "space": space_class_to_json(cls),
        "series_norm": series_norm,
        "series_norm_sq": series_norm**2,
        "quadrature": domain,
        "quadrature_norm": q,
        "quadrature_norm_sq": q**2,
        "relative_gap": check.residual,
    })
    return EXIT_OK if check.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# parameter sweeps

#: the keys a sweep reads: at the top of its config, and in `grid` (the
#: axes, in grid order, with their defaults)
SWEEP_KEYS = ("space", "grid", "order", "seed")
SWEEP_AXES = {"a0_mod": 0.3, "a0_arg": 0.0, "a1_fraction": 0.5, "c": 1.0}
#: each family a sweep runs (the first where `space` names none): the other
#: `space` keys it reads, with their defaults, and its weights and class
#: from them at an order
SWEEP_FAMILIES = {
    "binomial": (
        {"lambda": 1.0, "eta": 1.0},
        lambda lam, eta, order: (family_weights(cls := Binomial(lam, eta), order), cls),
    ),
    "fock": ({"b": 1.0}, lambda b, order: (fock_weights(b, order), Exponential(b_sq=b * b))),
}


def _config_number(value, key: str) -> float:
    if not is_json_number(value):
        raise ValueError(f"sweep config value {key} must be a number (got {value!r})")
    return float(value)


def _config_object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"sweep config {key} must be a JSON object")
    return value


def _refuse_unread(section: dict, read, where: str) -> None:
    """A key the sweep does not read would run another space or grid without
    a word (a binomial "lam" ran lam = 1): refuse the first one."""
    for key in section:
        if key not in read:
            raise ValueError(f"sweep config key {where}{key} is not read (read: {', '.join(read)})")


def _expand_axis(grid: dict, name: str, default: float) -> list[float]:
    """One grid axis: a number, a list of numbers, or
    {"start": a, "stop": b, "count": n} for n points spaced evenly."""
    spec, key = grid.get(name, [default]), f"grid.{name}"
    # an empty axis would make a grid with no cells, which prints no rows and passes
    if isinstance(spec, list):
        if not spec:
            raise ValueError(f"sweep config {key} is empty: the grid would have no cells")
        return [_config_number(v, f"{key}[{i}]") for i, v in enumerate(spec)]
    if isinstance(spec, dict):
        missing = [part for part in ("start", "stop", "count") if part not in spec]
        if missing:
            raise ValueError(f'sweep config {key} has no "{missing[0]}" key')
        if type(spec["count"]) is not int or spec["count"] < 1:
            raise ValueError(f"sweep config value {key}.count must be an integer >= 1")
        start, stop = (_config_number(spec[p], f"{key}.{p}") for p in ("start", "stop"))
        return [float(v) for v in np.linspace(start, stop, spec["count"])]
    return [_config_number(spec, key)]


def _sweep_cell(index, cls, ws, a0_mod, a0_arg, a1_fraction, c):
    """One grid cell over the sweep's space ``cls`` with weights ``ws``:
    synthesize, build, measure.  A cell that cannot be built comes back as
    a failed row carrying the error, so the rest of the grid stands."""
    try:
        a0 = a0_mod * np.exp(1j * a0_arg)
        interval = symbols.selfmap_interval(a0, cls.lam, 1.0)
        a1 = symbols.a1_from_fraction(interval, a1_fraction)
        sp = symbols.synthesize(cls, a0, a1, c, ws.order)
        matrix = operators.build_matrix(sp, ws)
    except (ValueError, ArithmeticError) as exc:
        return {
            "index": index,
            "a0_mod": a0_mod,
            "a0_arg": a0_arg,
            "a1_fraction": a1_fraction,
            "c": c,
            "pass": False,
            "error": str(exc),
        }
    deviation, *moments = verify.section_checks(matrix)
    return {
        "index": index,
        "a0_mod": a0_mod,
        "a0_arg": a0_arg,
        "a1": float(np.real(a1)),
        "a1_fraction": a1_fraction,
        "c": c,
        "deviation": deviation.residual,
        **{f"m{j}": moment.residual for j, moment in enumerate(moments)},
        "pass": deviation.passed,
    }


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be an integer >= 1 (got {args.workers})")
    with open(args.config, "r", encoding="utf-8") as handle:
        config = _config_object(json.load(handle), "file")
    _refuse_unread(config, SWEEP_KEYS, "")
    space = _config_object(config.get("space", {}), "space")
    grid = _config_object(config.get("grid", {}), "grid")
    require_finite(space, "space", "sweep config")
    require_finite(grid, "grid", "sweep config")
    family = space.get("family", next(iter(SWEEP_FAMILIES)))
    if family not in tuple(SWEEP_FAMILIES):  # a tuple: the family may be any JSON value
        raise ValueError(f"sweep supports {' and '.join(SWEEP_FAMILIES)} families (got {family!r})")
    keys, weights = SWEEP_FAMILIES[family]
    _refuse_unread(space, ("family", *keys), "space.")
    _refuse_unread(grid, SWEEP_AXES, "grid.")
    values = {key: _config_number(space.get(key, keys[key]), f"space.{key}") for key in keys}
    # outside (0, 1] no binomial space is hospitable: refused before any cell
    lam = values.get("lambda", 1.0)
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"sweep config value space.lambda must lie in (0, 1] (got {lam})")
    axes = [_expand_axis(grid, name, default) for name, default in SWEEP_AXES.items()]
    order = valid_order(config.get("order", DEFAULT_ORDER), "sweep config value order")
    # every cell shares one space; one that cannot be built (eta <= 0, b <= 0,
    # a generating coefficient that is not a normal double) is a usage error
    ws, cls = weights(*values.values(), order)
    rows = [_sweep_cell(idx, cls, ws, *cell) for idx, cell in enumerate(itertools.product(*axes))]

    result = {
        "schema": "wco-sweep/1",
        "space": space,
        "order": order,
        "seed": config.get("seed", 0),
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
    }
    text = _rows_to_csv(rows) if args.csv else json.dumps(result, indent=2, allow_nan=False)
    _write_or_print(args.output, text)
    return EXIT_OK if result["pass"] else EXIT_FAIL


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    # failed cells carry fewer fields plus "error"; take the union in order
    fieldnames = list(dict.fromkeys(key for row in rows for key in row))
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write_or_print(path, text) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")
    else:
        print(text)


# ---------------------------------------------------------------------------
# argument wiring


def _add_order_option(cmd) -> None:
    cmd.add_argument(
        "--order", type=int, default=None,
        help=f"truncation order N (default {DEFAULT_ORDER}); a --beta-file is read "
        "at its own order and cut to a smaller N",
    )


def _add_space_options(cmd) -> None:
    cmd.add_argument("--family", type=str, default=None, help=" | ".join(FAMILIES))
    cmd.add_argument("--eta", type=finite_float, default=None, help="binomial/bergman exponent")
    cmd.add_argument("--lam", type=finite_float, default=None, help="binomial lambda in (0, 1]")
    cmd.add_argument("--b", type=finite_float, default=None, help="fock scale (default 1)")
    cmd.add_argument("--level", type=finite_float, default=None,
                     help="flat weight level (default 2)")
    cmd.add_argument("--beta-file", type=str, default=None,
                     help='JSON weight file {"order": N, "beta": [...]}')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wco",
        description="Hermitian weighted composition operators: classification and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify_cmd = sub.add_parser("classify", help="classify a space from beta(1), beta(2) or a weight file")
    _add_order_option(classify_cmd)
    classify_cmd.add_argument("beta1", type=finite_float, nargs="?", default=None)
    classify_cmd.add_argument("beta2", type=finite_float, nargs="?", default=None)
    classify_cmd.add_argument("--beta-file", type=str, default=None)
    classify_cmd.set_defaults(func=cmd_classify)

    for name, func, help_text in (
        ("check", cmd_check, "run all verification checks, JSON report"),
        ("report", cmd_report, "run all verification checks, human-readable lines"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_order_option(cmd)
        _add_space_options(cmd)
        cmd.add_argument("--a0", type=parse_complex, required=True, help="phi(0), complex like 0.5 or 0.3+0.2i")
        cmd.add_argument("--a1", type=parse_complex, required=True, help="phi'(0)")
        cmd.add_argument("--c", type=parse_complex, required=True, help="psi(0)")
        if name == "report":
            cmd.add_argument("--output", type=str, default=None, help="also write the JSON report here")
        cmd.set_defaults(func=func)

    region_cmd = sub.add_parser("region", help="exact self-map interval for a1")
    region_cmd.add_argument("a0", type=parse_complex)
    region_cmd.add_argument("lam", type=finite_float)
    region_cmd.add_argument("rho", type=finite_float, nargs="?", default=1.0)
    region_cmd.set_defaults(func=cmd_region)

    sweep_cmd = sub.add_parser("sweep", help="grid sweep driven by a JSON config")
    sweep_cmd.add_argument("--config", type=str, required=True)
    sweep_cmd.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    sweep_cmd.add_argument("--output", type=str, default=None)
    sweep_cmd.add_argument(
        "--workers", type=int, default=1,
        help="accepted for existing command lines; the cells run in this process",
    )
    sweep_cmd.set_defaults(func=cmd_sweep)

    quad_cmd = sub.add_parser("quad", help="series norm vs integral quadrature norm")
    _add_order_option(quad_cmd)
    _add_space_options(quad_cmd)
    quad_cmd.add_argument("--f", type=str, required=True,
                          help="polynomial, e.g. 'z^3' or '1+0.5*z-(0.25+1i)*z^2'")
    quad_cmd.set_defaults(func=cmd_quad)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "order", None) is not None:
            valid_order(args.order, "--order")
        return args.func(args)
    except (ValueError, OSError) as exc:  # a DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
