"""Smoke tests: the fast example scripts must run end to end."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "car_dealership.py",
    "skyline_hotels.py",
    "quickstart.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{script} produced no output"


def test_all_examples_present():
    expected = {"quickstart.py", "car_dealership.py", "dblp_personalization.py",
                "topk_comparison.py", "skyline_hotels.py"}
    found = {entry.name for entry in EXAMPLES_DIR.glob("*.py")}
    assert expected <= found


def test_car_dealership_prints_expected_ranking(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "car_dealership.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "t1 > t2 > t3" in output
    assert "0.92" in output
