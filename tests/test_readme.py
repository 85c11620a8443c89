"""The README's library quick tour runs as printed and shows what it says,
and its command-line examples use only options the parser knows."""

import shlex
from pathlib import Path

from wco.cli import build_parser

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
