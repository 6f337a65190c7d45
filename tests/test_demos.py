"""Every demo script runs to the end."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # the first demo writes its SVGs to the directory given as argv[1]
    monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
