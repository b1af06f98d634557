"""Smoke test: every demo script runs and writes charts that parse, and the
Hong-Ou-Mandel demo prints a bunched pair."""

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import qlitho

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# The SVG files each demo writes to its working directory, with their series counts.
EXPECTED_CHARTS = {
    "fringe_doubling": {"fringe_doubling.svg": 3},
    "hong_ou_mandel": {},
    "noon_superresolution": {"noon_superresolution.svg": 3},
    "trench_synthesis": {"trench_synthesis.svg": 3},
}


def test_every_demo_is_listed():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(EXPECTED_CHARTS)


@pytest.mark.parametrize("demo", sorted(EXPECTED_CHARTS))
def test_demo_runs_and_writes_charts(tmp_path, demo):
    # The child imports the package the tests import, wherever it lives.
    src = str(Path(qlitho.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    charts = {p.name: p for p in tmp_path.glob("*.svg")}
    assert sorted(charts) == sorted(EXPECTED_CHARTS[demo])
    for name, series in EXPECTED_CHARTS[demo].items():
        root = ET.parse(charts[name]).getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == series, name
    if demo == "hong_ou_mandel":
        # The pair bunches: no coincidences, each bunched port at 1/2.
        probs = dict(re.findall(r"(\|\d,\d>)  amplitude \S+\s+probability (\S+)", result.stdout))
        assert probs["|2,0>"] == probs["|0,2>"] == "0.500000"
        quantum = re.search(r"coincidence probability \(quantum\)\s*: (\S+)", result.stdout)
        assert float(quantum.group(1)) < 1e-20
