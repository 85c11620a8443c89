"""The README's library quick tour runs as printed and shows what it says."""

from pathlib import Path

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
