"""Each narrative script in demos/ runs to completion on the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jmnl
from jmnl.scattering import ScanRequest, format_csv, run_scan
from jmnl.reference import BasisParams

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the child finds jmnl where this process did, also without PYTHONPATH set
    src = os.path.dirname(os.path.dirname(jmnl.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "04_resonance_scan":
        request = ScanRequest(
            basis=BasisParams(lam=5.0, ell=1),
            g=2.0,
            size=20,
            terms=8,
            weight_choice="resonance",
            nu_list=tuple(float(nu) for nu in range(1, 8)),
            e_min=0.5,
            e_max=6.0,
            steps=551,
        )
        assert (tmp_path / "resonance_scan.csv").read_text() == format_csv(run_scan(request))


def test_scan_demo_found():
    # the CSV comparison above runs only if the glob finds demo 04
    assert "04_resonance_scan" in [demo.stem for demo in DEMOS]
