"""The README's library quick tour runs as printed and shows what it says,
and its command-line examples parse and run with the exit codes it gives."""

import shlex
from pathlib import Path

from wco.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The python block under the "Library quick tour" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def test_quick_tour_values(capsys):
    namespace: dict = {}
    exec(compile(quick_tour(), str(README), "exec"), namespace)
    assert namespace["deviation"] <= 1e-15
    assert namespace["residual"] <= 1e-15
    assert namespace["report"].passed is False
    assert capsys.readouterr().out.rstrip().endswith("overall: FAIL")


def sweep_config() -> str:
    """The json block under "A sweep config:"."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("A sweep config:") :]
    start = section.index("```json\n") + len("```json\n")
    return section[start : section.index("```", start)]


def command_line_examples() -> list[str]:
    """Every ``wco ...`` line of the sh block under the "Command line" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start : section.index("```", start)]
    return [line for line in block.splitlines() if line.startswith("wco ")]


def test_command_line_examples_parse():
    # parsed only: no example runs, so no file it names is read
    examples = command_line_examples()
    assert len(examples) == 9
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])


def test_command_line_examples_run(capsys, monkeypatch, tmp_path):
    # the sweep reads the README's own config; the weight-file example names
    # a file the README does not show, so it is only parsed (above)
    (tmp_path / "sweep.json").write_text(sweep_config(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in command_line_examples():
        argv = shlex.split(line)[1:]
        if "--beta-file" in argv:
            continue
        # flat weights (beta(1) = beta(2) = 2) are not hospitable: exit 1
        assert main(argv) == (1 if argv == ["classify", "2", "2"] else 0), line
        ran += 1
    capsys.readouterr()
    assert ran == 8
    assert (tmp_path / "rows.csv").read_text(encoding="utf-8").count("\n") == 73
