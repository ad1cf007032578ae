"""The walkthrough scripts in demos/ run to completion, and README's
Quickstart prints what its prose states."""
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_collected():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quickstart_prints_what_its_prose_states(capsys):
    section = (ROOT / "README.md").read_text().split("## Quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = dict(line.split(": ", 1)
                   for line in capsys.readouterr().out.splitlines())
    # a small negative regret of about -0.7, a cumulative violation of 0.7,
    # inside the certified bound of 1.0
    assert float(printed["regret"]) == pytest.approx(-0.7, abs=1e-9)
    assert printed["violation"] == "[0.7]"
    assert float(printed["certified bound"]) == pytest.approx(1.0, abs=1e-12)
