"""The README's library example runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under `## Library`."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs(capsys):
    exec(compile(library_example(), f"{README}:Library", "exec"), {"__name__": "__main__"})
    # the example ends by printing the macro AUC of race from the deviations
    auc = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= auc <= 1.0
