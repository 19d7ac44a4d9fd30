"""Shows that the benchmark's checks are not vacuous.

    python3 perfbench/selftest.py

Runs chain_1d once (about as long as one benchmark run) and one
verify_small circuit, then hands the referee and the repeat checks
deliberately wrong outputs: a lambda moved by 1/1024, a wrong artifact
digest and profiles that are not equilibria.  Each must raise the failure
ratio above 0, and the unperturbed outputs must leave it at 0.  Exits 0
when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from fractions import Fraction

import run


def main() -> int:
    nashforge = run._import_package()
    from tracer import Api
    from workloads import WORKLOADS, Checks, VerifyInputs, verify_setup

    api = Api(nashforge)
    baseline = json.loads((run.BENCH / "baseline.json").read_text())
    run.OUT_DIR.mkdir(exist_ok=True)

    def fail_counts(name, inputs, out, base=baseline):
        workload = WORKLOADS[name]
        checks = Checks()
        workload.referee(api, inputs, out, checks)
        run._check_baseline(name, run._fingerprint(workload, out), base, checks)
        return checks.failed, checks.attempted

    def uniform(n):
        return [Fraction(1, n)] * n

    chain_in = WORKLOADS["chain_1d"].setup(0, run.OUT_DIR)
    chain = WORKLOADS["chain_1d"].run_pass(api, chain_in).out
    wrong_digest = copy.deepcopy(baseline)
    wrong_digest["chain_1d"]["sha256"]["game"] = "0" * 64
    dim = len(chain.game.A)

    verify_in = VerifyInputs(verify_setup(0).items[-1:])
    verify = WORKLOADS["verify_small"].run_pass(api, verify_in).out
    bad_lh = dataclasses.replace(verify[0].lh[0], x=uniform(len(verify[0].game.A)),
                                 y=uniform(len(verify[0].game.A)))
    verify_bad = [dataclasses.replace(verify[0], lh=[bad_lh] + verify[0].lh[1:])]

    cases = [
        ("chain_1d as computed", False, ("chain_1d", chain_in, chain)),
        ("chain_1d lambda + 1/1024", True,
         ("chain_1d", chain_in,
          dataclasses.replace(chain, lam=[v + Fraction(1, 1024) for v in chain.lam]))),
        ("chain_1d wrong artifact digest", True,
         ("chain_1d", chain_in, chain, wrong_digest)),
        ("chain_1d non-equilibrium profile", True,
         ("chain_1d", chain_in,
          dataclasses.replace(chain, cert=dataclasses.replace(
              chain.cert, x=uniform(dim), y=uniform(dim))))),
        ("verify_small circuit as computed", False, ("verify_small", verify_in, verify)),
        ("verify_small non-equilibrium LH profile", True,
         ("verify_small", verify_in, verify_bad)),
    ]
    ok = True
    for label, must_fail, args in cases:
        failed, attempted = fail_counts(*args)
        good = (failed > 0) == must_fail
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}  {label}: fail_ratio {failed / attempted:.4g} "
              f"({failed} failed / {attempted} attempted)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
