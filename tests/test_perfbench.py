"""The benchmark's self-check, run with the tests.

`perfbench/selftest.py` runs chain_1d once and one verify_small circuit,
checks the chain_1d artifact digests against `perfbench/baseline.json`,
and shows that deliberately wrong outputs raise the failure ratio.  It
reaches the package only through the calls the benchmark makes (for
instance `lemke_howson(..., max_dim=)` and `compile_brouwer(...,
validate=False)`), so a change that breaks one of them fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
