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
