"""Each walkthrough in ``demos/`` runs to the end and prints."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(capsys, monkeypatch, path):
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
