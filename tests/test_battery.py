"""The lemma battery in `nashforge.battery`, and `verify` as its formatter."""

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from nashforge import battery, brouwer, compiler, fixp, lcp, lp
from nashforge.cli import SCHEMA, _lemma_inputs, main
from nashforge.exactmath import rat_from_str

from conftest import one_minus_circuit, swap_circuit
from test_cli_digests import MANIFEST, SCRIPT, _write


def entries(records) -> list[dict]:
    return [{"name": c.name, "status": "PASS" if c.ok else "FAIL", "detail": c.detail}
            for c in records]


def test_lemma_battery_fits_the_benchmark_inputs(workloads, tmp_path, capsys):
    # the first circuit of each stratum, as (k, max gates) tells them apart
    firsts = {}
    for item in workloads.verify_setup(1).items:
        stratum = (item.circuit.k, sum(isinstance(g, fixp.Max) for g in item.circuit.gates))
        firsts.setdefault(stratum, item)
    assert sorted(firsts) == sorted((k, gates) for k, gates, _ in workloads.STRATA)
    for stratum, item in sorted(firsts.items()):
        P, prepared = lp.build_param_lp(item.circuit)
        records = list(battery.circuit_lemmas(P, prepared, item.lams, item.draws))
        assert all(c.ok for c in records), (stratum, records)
        semimonotone = next(c for c in records if c.name == "semimonotone_battery")
        assert semimonotone.detail == f"{len(item.draws)}/{len(item.draws)} witnessed"
        # the names `--mode lemmas` reports for the same circuit
        path = tmp_path / "circuit.json"
        _write(str(path), "circuit", fixp.circuit_to_json(item.circuit))
        report = tmp_path / "report.json"
        assert main(["verify", str(path), "--mode", "lemmas", "-o", str(report)]) == 0
        assert [c.name for c in records] == [
            c["name"] for c in json.loads(report.read_text())["checks"]]
    capsys.readouterr()


def battery_records(argv: list[str]) -> list:
    """The records the battery yields for a verify step of `SCRIPT`, from
    its files and flags, without the CLI."""
    flags = dict(zip(argv[2::2], argv[3::2]))
    doc = json.loads(Path(argv[1]).read_text())
    mode = flags.get("--mode", "lemmas")
    if doc["kind"] == "game":
        return list(battery.game_checks(lcp.game_from_json(doc)))
    circuit = fixp.circuit_from_json(doc)
    if mode == "approx":
        cb = brouwer.bool_from_json(json.loads(Path(flags["--source"]).read_text()))
        grid, params, shrunk = compiler.compiled_meta_from_json(
            json.loads(Path(flags["--compiled-meta"]).read_text()))
        cf = compiler.CompiledFunction(circuit, cb, grid, params, shrunk)
        points = [(text, [rat_from_str(v) for v in text.split(",")])
                  for text in flags["--points"].split(";")]
        return list(battery.approx_points(cf, points, Fraction(1, params.L)))
    P, prepared = lp.build_param_lp(circuit)
    if mode == "roundtrip":
        return list(battery.roundtrip(P, prepared))
    lams, draws = _lemma_inputs(P, int(flags["--seed"]), int(flags["--trials"]))
    return list(battery.circuit_lemmas(P, prepared, lams, draws))


def test_verify_reports_and_prints_the_battery_records(tmp_path, monkeypatch):
    # SCRIPT's inputs and steps as the digest test runs them, so that each
    # verify step reads the files the steps before it wrote
    monkeypatch.chdir(tmp_path)
    _write("brouwer.json", "brouwer", brouwer.bool_to_json(
        brouwer.make_example_coloring(brouwer.Grid(1, 1))))
    _write("oneminus.json", "circuit", fixp.circuit_to_json(one_minus_circuit()))
    _write("swap.json", "circuit", fixp.circuit_to_json(swap_circuit()))
    _write("manifest.json", "manifest", MANIFEST)
    modes = Counter()
    for argv in SCRIPT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(argv)
        if argv[0] != "verify":
            continue
        records = battery_records(argv)
        report = json.loads(Path(dict(zip(argv[2::2], argv[3::2]))["-o"]).read_text())
        assert report["schema"] == SCHEMA and report["checks"] == entries(records), argv
        assert len(out.getvalue().splitlines()) == len(records), argv
        modes[report["mode"]] += 1
    # every battery is reached: lemmas twice, on a circuit and on a game
    assert modes == {"lemmas": 2, "roundtrip": 1, "approx": 1}


def test_approx_points_evaluate_the_circuit_once_per_point(monkeypatch):
    # extraction checks the point itself, so the battery reads the verdict
    # of the approx_fixed_point record off its exception: one evaluation
    # of the compiled circuit per point, passing or failing
    cf = compiler.compile_brouwer(brouwer.make_example_coloring(brouwer.Grid(2, 1)))
    real, calls = compiler.evaluate, []

    def counted(circuit, p):
        calls.append(p)
        return real(circuit, p)
    monkeypatch.setattr(compiler, "evaluate", counted)
    eps = Fraction(1, cf.params.L)
    # the k=2, n=1 fixed point passes both checks; the grid point (1, 1)
    # moves by a full unit
    cases = [([Fraction(1055, 1536), Fraction(2591, 3072)], [True, True]),
             ([Fraction(1), Fraction(1)], [False])]
    for point, want in cases:
        calls.clear()
        records = list(battery.approx_points(cf, [("p", point)], eps))
        assert [c.ok for c in records] == want
        assert records[0].detail == f"eps=1/{cf.params.L}"
        assert len(calls) == 1
