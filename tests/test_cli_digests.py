"""Every scripted CLI output is byte-identical to the recorded digests.

`SCRIPT` runs each command (and a three-stage pipeline) in a fresh
directory on relative paths.  Per step, the exit code, the sha256 of
stdout and the sha256 of every file the step wrote or changed are
compared with `tests/cli_digests.json`.  A refactor that claims to leave
every output unchanged must pass this test unedited.  To record the
file (only when an output is meant to change, and say so):

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from nashforge import brouwer, fixp
from nashforge.cli import SCHEMA, main

from conftest import one_minus_circuit, swap_circuit

DIGESTS = Path(__file__).with_name("cli_digests.json")

MANIFEST = {"stages": [
    {"command": "compile", "input": "brouwer.json", "output": "p.c.json",
     "args": {"shrink": True, "no-grid-check": True}},
    {"command": "reduce", "input": "p.c.json", "output": "p.g.json", "args": {"target": "game"}},
    {"command": "solve", "input": "p.g.json", "output": "p.ne.json",
     "args": {"method": "lh", "label": 1}},
]}

SCRIPT = [
    ["compile", "brouwer.json", "-o", "c.json"],
    ["compile", "brouwer.json", "-o", "cs.json", "--shrink"],
    ["reduce", "oneminus.json", "--target", "lp", "-o", "lp.json", "--report", "lp.rep.json"],
    ["reduce", "oneminus.json", "--target", "lcp", "-o", "lcp.json", "--report", "lcp.rep.json"],
    ["reduce", "oneminus.json", "--target", "lcp", "--variant", "direct", "-o", "lcpd.json",
     "--report", "lcpd.rep.json"],
    ["reduce", "oneminus.json", "--target", "game", "-o", "g.json", "--report", "g.rep.json"],
    ["reduce", "cs.json", "--target", "game", "-o", "cg.json", "--report", "cg.rep.json"],
    ["reduce", "cs.json", "--target", "lp", "-o", "cslp.json"],
    ["reduce", "cs.json", "--target", "lcp", "--variant", "direct", "-o", "cslcpd.json"],
    ["reduce", "swap.json", "--target", "symmetric", "-o", "sym.json",
     "--report", "sym.rep.json"],
    ["reduce", "oneminus.json", "--target", "imitation", "-o", "imi.json",
     "--report", "imi.rep.json"],
    ["eval", "c.json", "--at", "3/4"],
    ["eval", "swap.json", "--at", "1/2,-1/3"],
    ["verify", "oneminus.json", "--mode", "lemmas", "--seed", "3", "--trials", "40",
     "-o", "v.lemmas.json"],
    ["verify", "oneminus.json", "--mode", "roundtrip", "-o", "v.roundtrip.json"],
    ["verify", "g.json", "-o", "v.game.json"],
    ["verify", "c.json", "--mode", "approx", "--source", "brouwer.json",
     "--compiled-meta", "c.json.meta.json", "--points", "3/4;49/64;0", "-o", "v.approx.json"],
    ["solve", "g.json", "-o", "ne.enum.json"],
    ["solve", "sym.json", "-o", "ne.sym.json"],
    ["solve", "cg.json", "--method", "lh", "-o", "ne.lh.json"],
    ["oracle", "brouwer.json", "-o", "oracle.json"],
    ["pipeline", "manifest.json"],
]


def _write(path: str, kind: str, body: dict):
    Path(path).write_text(json.dumps({"schema": SCHEMA, "kind": kind, **body},
                                     indent=2, sort_keys=True) + "\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files() -> dict:
    return {p.name: _sha(p.read_bytes()) for p in sorted(Path().iterdir())}


def run_script() -> dict:
    """Write the inputs into the current directory, run SCRIPT there and
    return, per step, its exit code and the digests of its stdout and of
    the files it wrote."""
    cb = brouwer.make_example_coloring(brouwer.Grid(1, 1))
    _write("brouwer.json", "brouwer", brouwer.bool_to_json(cb))
    _write("oneminus.json", "circuit", fixp.circuit_to_json(one_minus_circuit()))
    _write("swap.json", "circuit", fixp.circuit_to_json(swap_circuit()))
    _write("manifest.json", "manifest", MANIFEST)
    result = {"inputs": {"exit": None, "stdout": None, "files": _files()}}
    for argv in SCRIPT:
        before = _files()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        result[" ".join(argv)] = {
            "exit": code, "stdout": _sha(out.getvalue().encode()),
            "files": {name: sha for name, sha in _files().items() if before.get(name) != sha},
        }
    return result


def test_cli_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(DIGESTS.read_text())
    got = run_script()
    assert list(got) == list(expected)
    for step in expected:
        assert got[step] == expected[step], step


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        json.dump(run_script(), sys.stdout, indent=2)
        sys.stdout.write("\n")
