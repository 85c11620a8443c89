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
  the double range), and four lam < 1 pairs that run the dilation
  conjugation: lam = 0.5, eta = 300 at N = 64, and three refusals -- the
  same space at a0 = 0.9, a1 = 0.001, c = 1e250, whose dilate's psi leaves
  the double range; lam = 0.3, eta = 30 at N = 32, a0 = 0.5, a1 = 1,
  c = 1e300, whose dilated section does; and lam = 0.25, eta = 10 at
  c = 1.5e308i, where the pair's own |M - M*| overflows first.

The inputs come from ``bench/inputs.py`` next to this script, so both dumps
of a comparison read the same inputs whichever checkout they run.

``diff`` prints every record whose text differs and, inside it, every field
(a JSON path, or a CSV row and column) with its old and new value; it exits
1 when any record differs.

Bit-exact equality holds only on one numpy loop dispatch: the residuals go
through numpy's vector and complex loops, so a dump made under
``NPY_DISABLE_CPU_FEATURES`` differs from one made on the default loops in
the last bits of most residuals (and in a few argmax notes).  Compare dumps
made on the same machine with the same numpy settings.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
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


def diff(old: dict[str, str], new: dict[str, str]) -> int:
    names = sorted(old.keys() | new.keys())
    changed = [name for name in names if old.get(name) != new.get(name)]
    for name in changed:
        if name not in old or name not in new:
            print(f"{name}: only in the {'new' if name in new else 'old'} dump")
            continue
        print(name)
        a, b = fields(old[name]), fields(new[name])
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) != b.get(key):
                print(f"  {key}: {a.get(key)!r} -> {b.get(key)!r}")
    print(f"{len(names) - len(changed)} of {len(names)} records identical, {len(changed)} differ")
    return 1 if changed else 0


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
