"""`tools/records.py diff` tells verdict changes from moved numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "records.py"


@pytest.fixture(scope="module")
def records():
    spec = importlib.util.spec_from_file_location("records", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(residual, passed=True, note="argmax entry [0, 1]", rc=0):
    checks = [{"name": "hermitian-deviation", "residual": residual, "pass": passed, "notes": note}]
    return f"exit {rc}\n" + json.dumps({"checks": checks, "pass": passed})


def sweep_csv(deviation, passed="True", error=""):
    return f"exit 0\nindex,deviation,pass,error\n0,{deviation},{passed},{error}\n"


@pytest.mark.parametrize(
    "new, code, printed",
    [
        ({"a": report(1e-17), "b": sweep_csv(2e-17)}, 0, "2 of 2 records identical"),
        ({"a": report(3e-17), "b": sweep_csv(2e-17)}, 3,
         ".checks[hermitian-deviation].residual: 1 moved, largest relative move 0.667"),
        ({"a": report(1e-17, note="argmax entry [2, 4]"), "b": sweep_csv(2e-17)}, 3,
         ".checks[hermitian-deviation].notes: 1 moved"),
        ({"a": report(1e-17), "b": sweep_csv(4e-17)}, 3, "row:deviation: 1 moved"),
        ({"a": report(1e-17, passed=False, rc=1), "b": sweep_csv(2e-17)}, 1,
         "a exit: 'exit 0' -> 'exit 1'"),
        ({"a": report(1e-17), "b": sweep_csv(2e-17, error="psi overflows")}, 1,
         "b row 0:error: '' -> 'psi overflows'"),
        ({"a": report(1e-17)}, 1, "b: only in the old dump"),
        ({"a": "exit 2 stderr \"error: refused\\n\"\n", "b": sweep_csv(2e-17)}, 1,
         "a output: only in the old dump"),
    ],
    ids=["identical", "residual", "note", "csv-cell", "exit", "sweep-error", "missing", "refused"],
)
def test_diff_exit_code_separates_verdicts_from_numbers(records, capsys, new, code, printed):
    old = {"a": report(1e-17), "b": sweep_csv(2e-17)}
    assert records.diff(old, new) == code
    assert printed in capsys.readouterr().out


def test_a_check_in_one_dump_only_is_one_line(records, capsys):
    """A renamed check prints one line per record and side, not one per field."""
    renamed = report(1e-17).replace("hermitian-deviation", "deviation")
    assert records.diff({"a": report(1e-17)}, {"a": renamed}) == 1
    out = capsys.readouterr().out
    assert "verdict fields: 2 differ" in out
    assert "a .checks[hermitian-deviation]: only in the old dump" in out
    assert "a .checks[deviation]: only in the new dump" in out
