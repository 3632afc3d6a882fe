"""The paper scan and its checks under a second OpenBLAS kernel.

numpy's OpenBLAS picks its kernels by CPU, or by the OPENBLAS_CORETYPE
environment variable of the process, and another kernel rounds the products
differently.  A child process under the Prescott kernels must give every
paper row the same status and every check the same verdict as this process.
S values are not compared: their bound awaits a high-precision oracle.
"""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import jmnl
from jmnl.reference import BasisParams
from jmnl.scattering import ScanRequest, run_scan, validate


def paper_outcomes():
    """The status of each paper scan row, and the name and verdict of each check of validate at the 7 paper nu."""
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
    verdicts = [[check.name, check.passed] for config in request.configs for check in validate(config).checks]
    return {"status": list(run_scan(request).status), "verdicts": verdicts}


@pytest.mark.skipif(
    "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower(),
    reason="numpy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE picks no kernel",
)
@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS has Prescott kernels only on x86-64"
)
def test_paper_statuses_and_verdicts_under_prescott():
    here = os.path.dirname(__file__)
    src = os.path.dirname(os.path.dirname(jmnl.__file__))
    path = os.pathsep.join(filter(None, (src, here, os.environ.get("PYTHONPATH"))))
    script = "import json, test_blas_kernel; print(json.dumps(test_blas_kernel.paper_outcomes()))"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert len(child["status"]) == 7 * 551 and len(child["verdicts"]) == 7 * 4
    assert child == paper_outcomes()
