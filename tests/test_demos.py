import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# sha256 of each demo's stdout, which must not depend on where the demo runs
STDOUT_SHA256 = {
    "01_tilings_and_flips": "15ab6abf324c95c3d8f2b9208fcdbb034d66ee85779517204052098fbb421612",
    "02_laurent_recurrence": "75bf436ef474172996b8caf8be1f0330614ba84acb498d222420a29ba2bd1616",
    "03_tropical_propagation": "aedbf179098ec4ffeaa623635e81a620c025db338d541d36245531473338eba6",
    "04_isotropic_grassmannian": "eedf455246f86b68b98e73869f8ff452d28bea5bcff83f178447bd84432b8e66",
}


def test_demos_found():
    assert DEMOS
    assert [d.stem for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.pinned
@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
