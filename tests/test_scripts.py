"""Smoke tests of the walkthrough scripts, so an API change cannot break them silently."""

import math
import re
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_d2_pipeline_script(capsys):
    runpy.run_path(str(SCRIPTS / "run_d2_pipeline.py"), run_name="__main__")
    out = capsys.readouterr().out
    quad = complex(re.search(r"quadrature period at t=1: (\S+)", out).group(1))
    cont = complex(re.search(r"continued to t=4: (\S+)", out).group(1))
    assert abs(quad - math.pi) <= 1e-9
    assert abs(cont - 4 * math.pi) <= 1e-9


def test_residual_experiment_script(tmp_path, capsys):
    out = tmp_path / "residuals.csv"
    main = runpy.run_path(str(SCRIPTS / "run_residual_experiment.py"))["main"]
    assert main(["--count", "2", "-o", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "t,relative_residual,cycle_kind"
    assert [row.split(",")[0] for row in rows] == ["0.8", "0.92"]
    assert all(float(row.split(",")[1]) < 1e-6 for row in rows)
    assert "worst residual" in capsys.readouterr().out


def test_scalar_order_survey_script(capsys):
    main = runpy.run_path(str(SCRIPTS / "scalar_order_survey.py"))["main"]
    main(["-d", "3", "-n", "1"])
    out = capsys.readouterr().out
    # component 1 (form x dy) of a generic cubic has order (d-1)(d-2)+1 = 3
    assert "[ 1] k = 3" in out and "orders: {3: 1}" in out
