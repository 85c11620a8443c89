"""Dump the outputs of one checkout and diff two dumps, record by record.

    python tools/records.py dump ROOT OUT.json
    python tools/records.py diff OLD.json NEW.json

``dump`` imports ``wco`` from ``ROOT/src`` and writes 109 records, each the
text the program prints for one input (a command's exit code and stderr
head its stdout):

* ``cli_pool(s)#k`` -- the 16 ``wco check`` argvs of the cli-check
  benchmark pool, seeds 1..3, at N = 64 (48 records);
* ``report_pool(s)#k`` -- the JSON of ``verify.full_report`` on the 8
  report-large pairs, seeds 1..3, at N = 512 (24 records);
* ``sweep_configs(s)#k json`` and ``csv`` -- ``wco sweep`` on the 4
  sweep-grid configs, seeds 1..3, at N = 384 (24 records);
* ``check <argv>`` -- 13 ``wco check`` commands, at a0 = 0.3, a1 = 0.2,
  c = 1 unless the argv names its own: 9 with large kernel tails (Bergman
  eta 100..1200 and Fock b = 0.01, 0.04 at N = 64, the larger ones with
  terms still rising past N; Fock b = 1e-11 at N = 5, whose mass is beyond
  the double range), and four lam < 1 pairs, judged on their own sections
  and on the dilated integral norm: lam = 0.5, eta = 300 at N = 64; the
  same space at a0 = 0.9, a1 = 0.001, c = 1e250, an exactly Hermitian pair
  whose |M - M*| (9.4e281, rounding at max |M| = 1.1e297) fails the
  absolute identity tolerance; lam = 0.3, eta = 30 at N = 32, a0 = 0.5,
  a1 = 1, c = 1e300, whose lam = 1 dilate's raw coefficients
  [z^i](psi phi^j) leave the range while the normalized section does not,
  so it is judged (and fails: a1 = 1 is no self-map); and lam = 0.25,
  eta = 10 at c = 1.5e308i, refused because the pair's own |M - M*|
  overflows.

The inputs come from ``bench/inputs.py`` next to this script, so both dumps
of a comparison read the same inputs whichever checkout they run.

``diff`` compares the two dumps record by record and field by field (a
field is a JSON path, or a CSV row and column).  Verdict fields -- the exit
line (with stderr), every ``pass``, and a sweep row's ``error`` -- are
printed in full, record by record.  A check or a CSV row in one dump only,
or a whole output (against a refusal), is one line for its record.  Every
other field that moved (residuals, tolerances, notes) is summed up by its
name, list indices and CSV rows dropped: how many moved, the largest
relative move |new - old| / max(|old|, |new|) and the largest absolute
move, or an example where the values are not numbers.  Exit codes: 0 when
the dumps are identical; 1 when a verdict field differs, or a record, a
check or a row is in one dump only; 3 when only numbers or notes moved.

Verdicts must not depend on numpy's loop dispatch; numbers may: the
residuals go through numpy's vector and complex loops, so a dump made
under ``NPY_DISABLE_CPU_FEATURES`` differs from one made on the default
loops in the last bits of most residuals (and in a few argmax notes).
Bit-exact comparison of numbers needs dumps made on one machine with the
same numpy settings.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs  # noqa: E402

SEEDS = (1, 2, 3)
EXTRA_CHECKS = [
    ["--family", "bergman", f"--eta={eta}", "--order=64"] for eta in (100, 150, 300, 450, 600, 1200)
] + [["--family", "fock", f"--b={b}", "--order=64"] for b in (0.01, 0.04)] + [
    ["--family", "fock", "--b=1e-11", "--order=5"]
] + [
    ["--family", "binomial", "--lam=0.5", "--eta=300", "--order=64"],
    ["--family", "binomial", "--lam=0.5", "--eta=300", "--order=64",
     "--a0=0.9", "--a1=0.001", "--c=1e250"],
    ["--family", "binomial", "--lam=0.3", "--eta=30", "--order=32",
     "--a0=0.5", "--a1=1", "--c=1e300"],
    ["--family", "binomial", "--lam=0.25", "--eta=10", "--order=64", "--c=1.5e308i"],
]
PAIR = ["--a0=0.3", "--a1=0.2", "--c=1"]


def dump(root: Path) -> dict[str, str]:
    sys.path.insert(0, str(root / "src"))
    import wco.cli
    import wco.verify

    if Path(wco.__file__).resolve().parent != (root / "src" / "wco").resolve():
        raise SystemExit(f"imported wco from {wco.__file__}, not from {root / 'src'}")

    def cli(argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = wco.cli.main(argv)
        head = f"exit {rc}" + (f" stderr {json.dumps(err.getvalue())}" if err.getvalue() else "")
        return f"{head}\n{out.getvalue()}"

    records = {}
    for seed in SEEDS:
        for k, cand in enumerate(inputs.cli_pool(seed)):
            records[f"cli_pool({seed})#{k}"] = cli(cand["argv"] + [f"--order={inputs.CLI_ORDER}"])
    for seed in SEEDS:
        for k, p in enumerate(inputs.report_pool(seed)):
            space = wco.Binomial(lam=p["lam"], eta=p["eta"], gamma=(p["eta"] + 1.0) / p["eta"])
            ws = wco.family_weights(space, inputs.REPORT_ORDER)
            report = wco.verify.full_report(ws, p["a0"], p["a1"], p["c"])
            records[f"report_pool({seed})#{k}"] = json.dumps(report.to_dict(), indent=2)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for k, config in enumerate(inputs.sweep_configs(seed)):
                path = Path(tmp) / f"sweep-{seed}-{k}.json"
                path.write_text(json.dumps(config))
                argv = ["sweep", "--config", str(path), "--workers", str(inputs.SWEEP_WORKERS)]
                records[f"sweep_configs({seed})#{k} json"] = cli(argv)
                records[f"sweep_configs({seed})#{k} csv"] = cli(argv + ["--csv"])
    for argv in EXTRA_CHECKS:
        records["check " + " ".join(argv)] = cli(["check", *PAIR, *argv])  # argv's own win
    return records


def fields(text: str) -> dict[str, object]:
    """The leaves of a record: JSON paths (list entries with a "name" keyed
    by it), or CSV row:column cells, plus the exit line."""
    head, _, body = text.partition("\n") if text.startswith("exit ") else ("", "", text)
    leaves: dict[str, object] = {"exit": head} if head else {}

    def walk(path: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}.{key}", item)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                key = item["name"] if isinstance(item, dict) and "name" in item else i
                walk(f"{path}[{key}]", item)
        else:
            leaves[path] = value

    try:
        walk("", json.loads(body))
    except ValueError:
        for i, row in enumerate(csv.DictReader(io.StringIO(body))):
            for column, cell in row.items():
                leaves[f"row {i}:{column}"] = cell
    return leaves


#: the fields that carry a verdict, by the last part of their name
VERDICTS = ("exit", "pass", "error")


def _entry(key: str) -> str:
    """The part of a record a field belongs to: a CSV row, or the first
    component of a JSON path with its list key (a check, by its name)."""
    match = re.match(r"row \d+|\.[^.\[]*(\[[^\]]*\])?", key)
    return match.group(0) if match else key


def _move(a, b) -> tuple[float, float] | None:
    """The move of a number, absolute |b - a| and relative to max(|a|, |b|)
    (inf when one side is not finite); None when either is not a number."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf, math.inf
    return abs(y - x), abs(y - x) / max(abs(x), abs(y))


def diff(old: dict[str, str], new: dict[str, str]) -> int:
    names = sorted(old.keys() | new.keys())
    changed = [name for name in names if old.get(name) != new.get(name)]
    verdicts: list[str] = []
    moves: dict[str, list] = {}
    for name in changed:
        if name not in old or name not in new:
            verdicts.append(f"{name}: only in the {'new' if name in new else 'old'} dump")
            continue
        a, b = fields(old[name]), fields(new[name])
        held = [{_entry(key) for key in side} for side in (a, b)]
        for key in sorted(a.keys() | b.keys()):
            x, y = a.get(key), b.get(key)
            if x == y:
                continue
            entry = _entry(key)
            if not all(entry in side for side in held):  # a check or a row came or went
                entry = "output" if {"exit"} in held else entry  # one side only exited
                line = f"{name} {entry}: only in the {'new' if key in b else 'old'} dump"
                if line not in verdicts[-1:]:  # the fields of an entry sort together
                    verdicts.append(line)
            elif re.split(r"[.:]", key)[-1] in VERDICTS:
                verdicts.append(f"{name} {key}: {x!r} -> {y!r}")
            elif key not in a or key not in b:  # a field of a check came or went
                verdicts.append(f"{name} {key}: only in the {'new' if key in b else 'old'} dump")
            else:
                field = re.sub(r"\[\d+\]", "[]", re.sub(r"^row \d+:", "row:", key))
                moves.setdefault(field, []).append((_move(x, y), name, x, y))
    print(f"verdict fields: {len(verdicts)} differ")
    for line in verdicts:
        print(f"  {line}")
    print(f"numbers and notes: {len(moves)} fields moved")
    for field, items in sorted(moves.items()):
        sized = [item for item in items if item[0] is not None]
        if not sized:
            _, name, x, y = items[0]
            print(f"  {field}: {len(items)} moved, for example in {name}: {x!r} -> {y!r}")
            continue
        (_, rel), name, x, y = max(sized, key=lambda item: item[0][1])
        (size, _), far, *_ = max(sized, key=lambda item: item[0][0])
        print(
            f"  {field}: {len(items)} moved, largest relative move {rel:.3g} in {name}: "
            f"{x!r} -> {y!r}; largest absolute move {size:.3g} in {far}"
        )
    print(f"{len(names) - len(changed)} of {len(names)} records identical, {len(changed)} differ")
    return 1 if verdicts else 3 if changed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "dump":
        records = dump(Path(argv[1]).resolve())
        Path(argv[2]).write_text(json.dumps(records, indent=1))
        print(f"{len(records)} records written to {argv[2]}")
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(*(json.loads(Path(p).read_text()) for p in argv[1:]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
