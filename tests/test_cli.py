import json
import os
import stat
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nashforge
from nashforge import brouwer, cli, compiler, exactmath, fixp, lcp, lp, nash
from nashforge.cli import SCHEMA, main

from conftest import (
    encode_case, false_clamp_claim_circuit, one_minus_circuit, random_raw_circuit, swap_circuit,
)


def write_json(path, kind, body):
    doc = {"schema": SCHEMA, "kind": kind}
    doc.update(body)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


@pytest.fixture
def fixture_file(tmp_path):
    cb = brouwer.make_example_coloring(brouwer.Grid(2, 2))
    return write_json(tmp_path / "fixture.json", "brouwer", brouwer.bool_to_json(cb))


@pytest.fixture
def circuit_file(tmp_path):
    return write_json(tmp_path / "oneminus.json", "circuit",
                      fixp.circuit_to_json(one_minus_circuit()))


@pytest.fixture(scope="module")
def compiled_1d(tmp_path_factory):
    """make_example_coloring(Grid(1, 1)) compiled with --shrink; its game is 69x69."""
    tmp = tmp_path_factory.mktemp("compiled_1d")
    cb = brouwer.make_example_coloring(brouwer.Grid(1, 1))
    source = write_json(tmp / "brouwer.json", "brouwer", brouwer.bool_to_json(cb))
    compiled = str(tmp / "compiled.json")
    assert main(["compile", source, "-o", compiled, "--shrink"]) == 0
    return compiled


def unshrunk_1d(tmp_path):
    """make_example_coloring(Grid(1, 1)) and its unshrunk compiled circuit, as paths."""
    cb = brouwer.make_example_coloring(brouwer.Grid(1, 1))
    source = write_json(tmp_path / "b.json", "brouwer", brouwer.bool_to_json(cb))
    circuit = str(tmp_path / "c.json")
    assert main(["compile", source, "-o", circuit]) == 0
    return source, circuit


class TestCompile:
    def test_fixture_compiles_with_grid_check(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "circuit.json"
        assert main(["compile", fixture_file, "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "validation: PASS" in text
        assert "grid-restriction check: PASS" in text
        assert out.exists() and (tmp_path / "circuit.json.meta.json").exists()
        meta = json.loads((tmp_path / "circuit.json.meta.json").read_text())
        assert meta["L"] == 32 and meta["sample_count"] == 16 and meta["shrunk"] is False

    def test_invalid_circuit_exits_2(self, tmp_path, capsys):
        bits = encode_case(2, 0)
        cb = brouwer.BoolCircuit(2, 2, tuple(brouwer.BConst(v) for v in bits), (0, 1, 2, 3))
        bad = write_json(tmp_path / "bad.json", "brouwer", brouwer.bool_to_json(cb))
        assert main(["compile", bad, "-o", str(tmp_path / "c.json")]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_grid_check_violation_exits_3_before_any_write(self, fixture_file, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setattr(compiler, "grid_restriction_violations",
                            lambda cf: [((1, 1), (1, 2), [F(1), F(1)])])
        out = tmp_path / "circuit.json"
        assert main(["compile", fixture_file, "-o", str(out)]) == 3
        assert "grid-restriction check: FAIL at (1, 1)" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["fixture.json"]

    def test_shrink_flag(self, fixture_file, tmp_path):
        out = tmp_path / "circuit.json"
        assert main(["compile", fixture_file, "-o", str(out), "--shrink",
                     "--no-grid-check"]) == 0
        meta = json.loads((tmp_path / "circuit.json.meta.json").read_text())
        assert meta["shrunk"] is True
        circ = fixp.circuit_from_json(json.loads(out.read_text()))
        val = fixp.evaluate(circ, [F(0), F(0)])
        assert val == [F(0), F(1, 3)]   # (0,1)/(2^n-1)

    @pytest.mark.parametrize("spelling", [["c.json"], ["sub", "..", "c.json"]])
    def test_meta_on_the_output_path_refused_before_any_write(self, spelling, fixture_file,
                                                              tmp_path, capsys):
        out = tmp_path / "c.json"
        meta = os.path.join(tmp_path, *spelling)
        assert main(["compile", fixture_file, "-o", str(out), "--meta", meta]) == 2
        assert "is the output path" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["fixture.json"]

    def test_rerun_byte_identical(self, fixture_file, tmp_path):
        out = tmp_path / "circuit.json"
        main(["compile", fixture_file, "-o", str(out), "--no-grid-check"])
        first = out.read_bytes()
        main(["compile", fixture_file, "-o", str(out), "--no-grid-check"])
        assert out.read_bytes() == first


class TestSave:
    def test_writes_the_indented_sorted_document(self, tmp_path):
        target = tmp_path / "out.json"
        body = {"b": ["1/2", "0"], "a": {"z": 1, "y": None}}
        cli._save(str(target), "game", body)
        doc = {"schema": SCHEMA, "kind": "game", **body}
        assert target.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_encode_leaves_no_partial_file(self, tmp_path, existing):
        target = tmp_path / "out.json"
        if existing:
            target.write_text("kept")
        # the list is half written when the encoder meets the object
        with pytest.raises(TypeError):
            cli._save(str(target), "game", {"A": [["0"] * 1000, object()]})
        assert [p.name for p in tmp_path.iterdir()] == (["out.json"] if existing else [])
        if existing:
            assert target.read_text() == "kept"

    def test_symlink_target_is_updated_through_the_link(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        cli._save(str(link), "game", {"A": [["1"]]})
        assert link.is_symlink() and link.resolve() == real
        assert json.loads(real.read_text())["A"] == [["1"]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]

    def test_existing_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        target.chmod(0o640)
        cli._save(str(target), "game", {"A": [["1"]]})
        assert json.loads(target.read_text())["A"] == [["1"]]
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_device_target_is_written_in_place(self):
        cli._save(os.devnull, "game", {"A": [["1"]]})
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_unwritable_path_is_an_input_error_naming_it(self, tmp_path):
        target = tmp_path / "nodir" / "out.json"
        with pytest.raises(cli.InputError, match=f"^{target}: cannot write file"):
            cli._save(str(target), "game", {"A": [["1"]]})
        assert list(tmp_path.iterdir()) == []


class TestMissingOutputDirectory:
    """An output path in a directory that does not exist exits 2, naming
    the path, before any work and with nothing written."""

    def refused(self, argv, path, tmp_path, capsys):
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert f"{path}: cannot write it" in err and "internal error" not in err
        assert sorted(tmp_path.rglob("*")) == before
        return out, err

    def test_reduce(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "g.json"
        text, _ = self.refused(["reduce", circuit_file, "--target", "game", "-o", str(out)],
                               out, tmp_path, capsys)
        assert "rank" not in text

    def test_reduce_report(self, circuit_file, tmp_path, capsys):
        report = tmp_path / "nodir" / "r.json"
        self.refused(["reduce", circuit_file, "--target", "game", "-o", str(tmp_path / "g.json"),
                      "--report", str(report)], report, tmp_path, capsys)

    @pytest.mark.parametrize("explicit_meta", [False, True])
    def test_compile_meta(self, fixture_file, tmp_path, capsys, explicit_meta):
        # the default sidecar OUTPUT.meta.json shares the output's directory
        out = tmp_path / "nodir" / "c.json"
        argv = ["compile", fixture_file, "-o", str(out)]
        if explicit_meta:
            out = tmp_path / "nodir" / "c.meta.json"
            argv = ["compile", fixture_file, "-o", str(tmp_path / "c.json"), "--meta", str(out)]
        text, _ = self.refused(argv, out, tmp_path, capsys)
        assert "validation" not in text

    def test_verify(self, circuit_file, tmp_path, capsys):
        report = tmp_path / "nodir" / "v.json"
        text, _ = self.refused(["verify", circuit_file, "--mode", "roundtrip", "-o", str(report)],
                               report, tmp_path, capsys)
        assert text == ""

    def test_pipeline_last_stage(self, circuit_file, tmp_path, capsys):
        game, report = tmp_path / "game.json", tmp_path / "nodir" / "ne.json"
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "reduce", "input": circuit_file,
             "output": str(game), "args": {"target": "game"}},
            {"command": "solve", "input": str(game), "output": str(report)},
        ]})
        text, err = self.refused(["pipeline", manifest], report, tmp_path, capsys)
        assert "[stage 0]" not in text and err.startswith(f"error: stage 1: {report}")


class TestReduce:
    def test_game_target_matches_worked_matrices(self, circuit_file, tmp_path, capsys):
        out = tmp_path / "game.json"
        assert main(["reduce", circuit_file, "--target", "game", "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rank(A+B) = 2 <= k+1 = 2: PASS" in text
        game = lcp.game_from_json(json.loads(out.read_text()))
        assert game.A == [[F(1, 2), F(1, 2), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
        assert game.B == [[F(-1, 2), F(-1, 2), F(0)], [F(1), F(-1), F(0)], [F(1), F(2), F(1)]]

    def test_symmetric_target(self, circuit_file, tmp_path):
        out = tmp_path / "sym.json"
        assert main(["reduce", circuit_file, "--target", "symmetric", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["A"] == [["-1", "1", "1"], ["-1", "-1", "2"], ["0", "0", "1"]]

    def test_lp_and_lcp_targets(self, circuit_file, tmp_path):
        # no command reads these artifacts back, so the documents are pinned here
        header = {"schema": SCHEMA}
        lp_out = tmp_path / "lp.json"
        assert main(["reduce", circuit_file, "--target", "lp", "-o", str(lp_out)]) == 0
        assert json.loads(lp_out.read_text()) == {
            **header, "kind": "param_lp", "m": 2, "k": 1, "n": 0,
            "A": [["1", "0"], ["1", "1"]], "b": ["0", "1"], "U": [["1", "0"]],
            "output_rows": [1], "c": ["2", "1"], "beta": ["3", "1"]}
        lcp_out = tmp_path / "lcp.json"
        assert main(["reduce", circuit_file, "--target", "lcp", "-o", str(lcp_out)]) == 0
        assert json.loads(lcp_out.read_text()) == {
            **header, "kind": "lcp", "block": "lcp_c", "m": 2, "k": 1, "output_rows": [1],
            "M": [["0", "0", "1/2", "1/2"], ["0", "0", "0", "1"],
                  ["-1/2", "1", "0", "0"], ["-1/2", "-1", "0", "0"]],
            "q": ["1", "1", "0", "-1"]}
        direct_out = tmp_path / "lcp2.json"
        assert main(["reduce", circuit_file, "--target", "lcp", "--variant", "direct",
                     "-o", str(direct_out)]) == 0
        assert json.loads(direct_out.read_text()) == {
            **header, "kind": "lcp", "block": "direct", "m": 2, "k": 1, "output_rows": [1],
            "M": [["-1", "1"], ["-1", "-1"]], "q": ["0", "-1"]}

    def test_imitation_target(self, circuit_file, tmp_path):
        out = tmp_path / "imi.json"
        assert main(["reduce", circuit_file, "--target", "imitation", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["kind"] == "imitation"
        assert doc["B"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

    def test_game_rank_read_off_certificate_rows(self, fixture_file, tmp_path, monkeypatch,
                                                 capsys):
        circuit = str(tmp_path / "circuit.json")
        assert main(["compile", fixture_file, "-o", circuit, "--no-grid-check"]) == 0
        calls = []

        def counting_rank(m):
            calls.append(len(m))
            return exactmath.rank(m)
        monkeypatch.setattr(lcp, "rank", counting_rank)
        assert main(["reduce", circuit, "--target", "game", "-o", str(tmp_path / "g.json")]) == 0
        assert "rank(A+B) = 3 <= k+1 = 3: PASS" in capsys.readouterr().out
        assert calls == [3]    # one elimination, on the k+1 = 3 certificate rows

    @pytest.mark.parametrize("failing", ["structure", "rank"])
    def test_failed_check_line_exits_3_before_any_write(self, failing, circuit_file, tmp_path,
                                                        monkeypatch, capsys):
        if failing == "structure":
            # fails the check on the costed LP that reduce prints, not the
            # one build_constraints runs before the cost is added
            monkeypatch.setattr(lp, "property_violations",
                                lambda P: ["forced"] if P.c is not None else [])
            line = "structure checks P1-P3: FAIL forced"
        else:
            rank = lcp.payoff_sum_rank
            monkeypatch.setattr(lcp, "payoff_sum_rank", lambda A, B: rank(A, B) + 5)
            line = "rank(A+B) = 7 <= k+1 = 2: FAIL"
        out, report = tmp_path / "game.json", tmp_path / "report.json"
        assert main(["reduce", circuit_file, "--target", "game", "-o", str(out),
                     "--report", str(report)]) == 3
        assert capsys.readouterr() == ("", f"lemma falsification alarm: {line}\n")
        assert not out.exists() and not report.exists()

    def test_game_targets_never_read_dense_views(self, circuit_file, tmp_path, monkeypatch, rng):
        reads = []
        for cls, view in ((lcp.BimatrixGame, "A"), (lcp.BimatrixGame, "B"),
                          (lcp.SymmetricGame, "S")):
            dense = getattr(cls, view)
            monkeypatch.setattr(cls, view, property(
                lambda game, view=view, dense=dense: reads.append(view) or dense.fget(game)))
        raw = write_json(tmp_path / "raw.json", "circuit",
                         fixp.circuit_to_json(random_raw_circuit(rng, 2, 3)))
        for source in (circuit_file, raw):
            for target in ("game", "symmetric", "imitation"):
                out = str(tmp_path / f"{target}.json")
                assert main(["reduce", source, "--target", target, "-o", out]) == 0
        assert reads == []

    def test_rerun_byte_identical(self, circuit_file, tmp_path):
        out = tmp_path / "game.json"
        main(["reduce", circuit_file, "--target", "game", "-o", str(out)])
        first = out.read_bytes()
        main(["reduce", circuit_file, "--target", "game", "-o", str(out)])
        assert out.read_bytes() == first

    @pytest.mark.parametrize("spelling", [["g.json"], ["sub", "..", "g.json"]])
    def test_report_on_the_output_path_refused_before_any_write(self, spelling, circuit_file,
                                                                tmp_path, capsys):
        out = tmp_path / "g.json"
        report = os.path.join(tmp_path, *spelling)
        assert main(["reduce", circuit_file, "--target", "game", "-o", str(out),
                     "--report", report]) == 2
        assert "is the output path" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["oneminus.json"]

    def test_report_beside_the_artifact(self, circuit_file, tmp_path):
        out, report = tmp_path / "g.json", tmp_path / "r.json"
        assert main(["reduce", circuit_file, "--target", "game", "-o", str(out),
                     "--report", str(report)]) == 0
        assert json.loads(out.read_text())["kind"] == "game"
        assert json.loads(report.read_text())["kind"] == "reduce_report"


class TestVerify:
    def test_roundtrip_recovers_fixed_point(self, circuit_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["verify", circuit_file, "--mode", "roundtrip", "-o", str(report)]) == 0
        text = capsys.readouterr().out
        assert "lambda = 1/2" in text
        doc = json.loads(report.read_text())
        assert doc["ok"] is True

    def test_roundtrip_builds_the_lcp_once_per_equilibrium(self, circuit_file, tmp_path,
                                                           monkeypatch, capsys):
        calls = []
        normalize = lcp.normalize
        monkeypatch.setattr(lcp, "normalize", lambda P: calls.append(P) or normalize(P))
        report = tmp_path / "report.json"
        assert main(["verify", circuit_file, "--mode", "roundtrip", "-o", str(report)]) == 0
        lines = [c["name"] for c in json.loads(report.read_text())["checks"]]
        assert len(calls) == sum(name.endswith("_lcp_conditions") for name in lines) == 1

    def test_roundtrip_reports_an_lcp_violation_on_its_line(self, circuit_file, monkeypatch,
                                                            capsys):
        monkeypatch.setattr(lcp, "lcp_violations", lambda inst, z: ["row 0 infeasible"])
        assert main(["verify", circuit_file, "--mode", "roundtrip"]) == 3
        assert ("FAIL  ne_0_lcp_conditions  (mapped equilibrium violates the LCP: row 0"
                " infeasible)") in capsys.readouterr().out

    def test_roundtrip_needs_a_circuit(self, circuit_file, tmp_path, capsys):
        game, report = str(tmp_path / "game.json"), tmp_path / "report.json"
        assert main(["reduce", circuit_file, "--target", "game", "-o", game]) == 0
        capsys.readouterr()
        assert main(["verify", game, "--mode", "roundtrip", "-o", str(report)]) == 2
        out, err = capsys.readouterr()
        assert "roundtrip needs a circuit" in err and "PASS" not in out and not report.exists()

    def test_lemmas_mode_all_pass(self, circuit_file, capsys):
        assert main(["verify", circuit_file, "--mode", "lemmas", "--trials", "60"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("circuit", [one_minus_circuit, swap_circuit])
    def test_lemmas_mode_densifies_S_once(self, circuit, tmp_path, monkeypatch, capsys):
        # the one dense S serves the symmetric enumeration, every symmetric
        # equilibrium's check and the imitation game, whose A is S
        reads = []
        for cls, name in ((lcp.SymmetricGame, "S"), (lcp.BimatrixGame, "A")):
            view = getattr(cls, name)
            monkeypatch.setattr(cls, name, property(
                lambda g, view=view: reads.append(g.meta.kind) or view.fget(g)))
        path = write_json(tmp_path / "c.json", "circuit", fixp.circuit_to_json(circuit()))
        assert main(["verify", path, "--mode", "lemmas", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "PASS  symmetric_path_fixed_points" in out
        assert "PASS  imitation_second_strategies" in out
        assert reads.count("symmetric") == 1 and "imitation" not in reads

    @pytest.mark.parametrize("name,broken", [
        # the LP optimum disagrees with the circuit's max-gate trace
        ("solve_lp", lambda real: lambda P, lam: [v + 1 for v in real(P, lam)]),
        # the optimum agrees, but its dual breaks the KKT conditions
        ("kkt_violations", lambda real: lambda *args: ["complementarity fails"]),
    ])
    def test_lemmas_mode_failing_lp_probe_exits_2(self, name, broken, circuit_file,
                                                   monkeypatch, capsys):
        monkeypatch.setattr(lp, name, broken(getattr(lp, name)))
        assert main(["verify", circuit_file, "--mode", "lemmas", "--trials", "60"]) == 2
        out = capsys.readouterr().out
        assert "FAIL  lp_matches_circuit_and_kkt" in out and out.count("FAIL") == 1

    def test_lemmas_mode_semimonotone_alarm_exits_3(self, circuit_file, tmp_path, monkeypatch,
                                                    capsys):
        # a draw with no violated row is a nonzero solution of LCP(q, M) with q > 0
        def solved(two_sided, z, q):
            raise lcp.LemmaFalsified("no row of z is violated")
        monkeypatch.setattr(lcp, "semimonotone_witness", solved)
        report = tmp_path / "report.json"
        assert main(["verify", circuit_file, "--mode", "lemmas", "--trials", "60",
                     "-o", str(report)]) == 3
        out = capsys.readouterr().out
        assert "FAIL  semimonotone_battery  (0/60 witnessed)" in out
        assert ("FAIL  lemma_falsification_alarm  (semimonotone battery found a nonzero"
                " solution)") in out
        assert json.loads(report.read_text())["ok"] is False

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_lemmas_mode_rejects_empty_battery(self, circuit_file, trials, capsys):
        assert main(["verify", circuit_file, "--mode", "lemmas", "--trials", trials]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_corrupted_game_fails_with_named_condition(self, circuit_file, tmp_path, capsys):
        game_path = tmp_path / "game.json"
        main(["reduce", circuit_file, "--target", "game", "-o", str(game_path)])
        doc = json.loads(game_path.read_text())
        doc["B"][0][1] = "7/2"
        game_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        code = main(["verify", str(game_path)])
        assert code != 0

    @pytest.mark.parametrize("target", ["symmetric", "imitation"])
    @pytest.mark.parametrize("tampered", [False, True])
    def test_game_kind_structure_checked(self, target, tampered, circuit_file, tmp_path,
                                         capsys):
        game_path = tmp_path / "game.json"
        assert main(["reduce", circuit_file, "--target", target, "-o", str(game_path)]) == 0
        if tampered:
            # the battery past the structure check still passes this game
            doc = json.loads(game_path.read_text())
            doc["B"][0][0] = doc["B"][2][1] = "3"
            game_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(game_path)]) == (2 if tampered else 0)
        out = capsys.readouterr().out
        assert f"{'FAIL' if tampered else 'PASS'}  {target}_structure" in out
        assert out.count("FAIL") == tampered

    def test_lemmas_mode_checks_triangularity_apart_from_rank(self, circuit_file,
                                                             monkeypatch, capsys):
        build_game = lcp.build_game

        def moved(two_sided):
            # moving B[1][0] into A[1][0] leaves A + B, and so its rank, alone
            game = build_game(two_sided)
            A, B = [dict(row) for row in game.A_rows], [dict(row) for row in game.B_rows]
            assert 0 not in A[1] and 0 in B[1]
            A[1][0] = B[1].pop(0)
            return lcp.BimatrixGame(A, B, game.meta)
        monkeypatch.setattr(lcp, "build_game", moved)
        assert main(["verify", circuit_file, "--mode", "lemmas", "--trials", "20"]) != 0
        assert "FAIL  rank_and_triangularity" in capsys.readouterr().out

    @pytest.mark.parametrize("k,output_rows,message", [(1, [0], "FAIL  rank_bound"),
                                                      (2, [0], "meta.k is 2")])
    def test_rank_bound_reads_the_games_own_k(self, k, output_rows, message, tmp_path, capsys):
        # rank(I + 0) = 3 breaks the bound k + 1 = 2; with meta.k = 2 it would
        # hold, so a k that disagrees with the output rows is refused
        body = {"rows": 3, "cols": 3,
                "A": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "B": [["0"] * 3 for _ in range(3)],
                "meta": {"m": 2, "k": k, "c": None, "output_rows": output_rows,
                         "kind": "rank_k_plus_1"}}
        game = write_json(tmp_path / "game.json", "game", body)
        assert main(["verify", game]) == 2
        out, err = capsys.readouterr()
        assert message in out + err
        if k == 2:
            assert game in err and "rank_bound" not in out

    def test_lemmas_mode_refuses_game_past_cap_before_any_check(self, compiled_1d,
                                                                monkeypatch, capsys):
        # each check records its call and stops the run
        calls = []

        def counted(name):
            def stub(*args):
                calls.append(name)
                raise AssertionError(f"{name} ran before the dimension cap")
            return stub
        for module in (lcp, exactmath):
            monkeypatch.setattr(module, "rank", counted("rank"))
        monkeypatch.setattr(lcp, "semimonotone_witness", counted("semimonotone_witness"))
        assert main(["verify", compiled_1d, "--mode", "lemmas"]) == 2
        assert "game is 69x69; cap is 12" in capsys.readouterr().err
        assert calls == []

    def test_game_past_cap_refused_before_any_check(self, compiled_1d, tmp_path,
                                                    monkeypatch, capsys):
        game = str(tmp_path / "game.json")
        assert main(["reduce", compiled_1d, "--target", "game", "-o", game]) == 0
        capsys.readouterr()
        calls = []
        for module in (lcp, exactmath):
            monkeypatch.setattr(module, "rank", lambda *args: calls.append("rank"))
        report = tmp_path / "report.json"
        assert main(["verify", game, "-o", str(report)]) == 2
        out, err = capsys.readouterr()
        assert "game is 69x69; cap is 12" in err
        assert calls == [] and "PASS" not in out and not report.exists()

    def test_approx_mode_on_compiled_instance(self, fixture_file, tmp_path, capsys):
        circ = tmp_path / "compiled.json"
        main(["compile", fixture_file, "-o", str(circ), "--no-grid-check"])
        fp = "1055/1536,2591/3072"
        code = main(["verify", str(circ), "--mode", "approx",
                     "--source", fixture_file,
                     "--compiled-meta", str(tmp_path / "compiled.json.meta.json"),
                     "--points", fp])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "cells (0, 0) (0, 1) (1, 1)" in text

    def test_approx_mode_reports_a_point_that_witnesses_no_simplex(self, tmp_path, capsys):
        # within eps = 4 of its image, but every sample of 0 lies in the cell (0)
        source, circuit = unshrunk_1d(tmp_path)
        capsys.readouterr()
        assert main(["verify", circuit, "--mode", "approx", "--points", "0", "--eps", "4",
                     "--source", source, "--compiled-meta", circuit + ".meta.json"]) == 2
        out = capsys.readouterr().out
        assert "PASS  approx_fixed_point[0]  (eps=4)" in out
        assert "FAIL  simplex[0]  (well samples cover 1 cells, need 2)" in out

    def test_approx_mode_rejects_moving_point(self, fixture_file, tmp_path, capsys):
        circ = tmp_path / "compiled.json"
        main(["compile", fixture_file, "-o", str(circ), "--no-grid-check"])
        code = main(["verify", str(circ), "--mode", "approx",
                     "--source", fixture_file,
                     "--compiled-meta", str(tmp_path / "compiled.json.meta.json"),
                     "--points", "1,1"])
        assert code != 0
        assert "FAIL" in capsys.readouterr().out


class TestSolve:
    def test_enumerate_reports_lambda(self, circuit_file, tmp_path, capsys):
        game_path = tmp_path / "game.json"
        main(["reduce", circuit_file, "--target", "game", "-o", str(game_path)])
        report = tmp_path / "ne.json"
        assert main(["solve", str(game_path), "-o", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["entries"] == [{
            "x": ["2/5", "1/5"], "s": "2/5",
            "y": ["1/3", "1/3"], "t": "1/3",
            "pi1": "1/3", "pi2": "2/5",
            "lambda": ["1/2"],
        }]

    def test_lemke_howson_method(self, circuit_file, tmp_path, capsys):
        game_path = tmp_path / "game.json"
        main(["reduce", circuit_file, "--target", "game", "-o", str(game_path)])
        capsys.readouterr()
        assert main(["solve", str(game_path), "--method", "lh", "--label", "1"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries[0]["lambda"] == ["1/2"]

    def test_lemke_howson_on_compiled_game(self, compiled_1d, tmp_path, capsys):
        # the whole 1-D chain through the CLI: a 69x69 game, far beyond the
        # enumeration cap, solved under the pivot bound
        game = str(tmp_path / "game.json")
        assert main(["reduce", compiled_1d, "--target", "game", "-o", game]) == 0
        capsys.readouterr()
        assert main(["solve", game, "--method", "lh"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["lambda"] for e in entries] == [["3/4"]]
        assert main(["solve", game, "--method", "lh", "--max-pivots", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bound of 10 pivots" in err
        assert main(["solve", game, "--method", "lh", "--max-pivots", "0"]) == 2
        assert "--max-pivots must be at least 1" in capsys.readouterr().err

    def test_label_out_of_range_exits_2(self, circuit_file, tmp_path, capsys):
        game_path = str(tmp_path / "game.json")
        main(["reduce", circuit_file, "--target", "game", "-o", game_path])
        capsys.readouterr()
        for label in ("6", "-1"):
            assert main(["solve", game_path, "--method", "lh", "--label", label]) == 2
            assert f"--label must lie in 0..5, got {label}" in capsys.readouterr().err

    def test_stray_value_error_is_internal(self, circuit_file, tmp_path, monkeypatch, capsys):
        # a ValueError from inside the package is a bug, not bad input
        game_path = str(tmp_path / "game.json")
        main(["reduce", circuit_file, "--target", "game", "-o", game_path])
        capsys.readouterr()

        def broken(A, B):
            raise ValueError("dimension mismatch")
        monkeypatch.setattr(nash, "enumerate_ne", broken)
        assert main(["solve", game_path]) == 1
        assert "internal error: ValueError: dimension mismatch" in capsys.readouterr().err

    def test_lambda_carrier_per_game_kind(self, circuit_file, tmp_path, capsys):
        # symmetric games carry the fixed point on symmetric profiles,
        # imitation games on the second player's strategy
        for target in ("symmetric", "imitation"):
            path = tmp_path / f"{target}.json"
            main(["reduce", circuit_file, "--target", target, "-o", str(path)])
            capsys.readouterr()
            assert main(["solve", str(path)]) == 0
            entries = json.loads(capsys.readouterr().out)
            lams = {tuple(e["lambda"]) for e in entries if "lambda" in e}
            assert lams == {("1/2",)}
            if target == "imitation":
                for e in entries:
                    if "lambda" in e:
                        assert e["y"] == ["1/4", "1/4"] and e["t"] == "1/2"


class TestOracleAndEval:
    def test_oracle_lists_known_cube(self, fixture_file, tmp_path, capsys):
        report = tmp_path / "oracle.json"
        assert main(["oracle", fixture_file, "-o", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["validation"] == "PASS"
        assert doc["panchromatic_cubes"][0]["base"] == [0, 0]

    def test_oracle_validates_once(self, fixture_file, monkeypatch, capsys):
        calls = []
        validate = brouwer.validate_circuit

        def counting_validate(*args, **kwargs):
            calls.append(args)
            return validate(*args, **kwargs)
        monkeypatch.setattr(brouwer, "validate_circuit", counting_validate)
        assert main(["oracle", fixture_file]) == 0
        assert len(calls) == 1

    def test_eval(self, circuit_file, capsys):
        # coordinates are stripped, so spaces around them are not part of a rational
        for point in ("1/4", " 1/4 "):
            assert main(["eval", circuit_file, "--at", point]) == 0
            assert json.loads(capsys.readouterr().out) == ["3/4"]

    def test_eval_bad_point_exits_2(self, circuit_file, capsys):
        assert main(["eval", circuit_file, "--at", "1/4,1/2"]) == 2
        assert main(["eval", circuit_file, "--at", "1_000"]) == 2


class TestBadArguments:
    """Command-line values that the package refuses exit 2 with the value named."""

    def test_compile_density_not_a_power_of_two(self, fixture_file, tmp_path, capsys):
        assert main(["compile", fixture_file, "-o", str(tmp_path / "c.json"), "--L", "100"]) == 2
        assert "L must be a power of two" in capsys.readouterr().err

    def test_eps_not_rational(self, circuit_file, tmp_path, capsys):
        self.check_eps_refused("x", circuit_file, tmp_path, capsys)

    @pytest.mark.parametrize("value", ["1/0", "1.5", " 1/2", "+1"])
    def test_eps_takes_the_wire_form_only(self, value, circuit_file, tmp_path, capsys):
        self.check_eps_refused(value, circuit_file, tmp_path, capsys)

    @staticmethod
    def check_eps_refused(value, circuit_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", circuit_file, "--mode", "approx", "--eps", value, "-o", str(out)])
        assert exc.value.code == 2
        assert (f"argument --eps: expected a rational p or p/q (ASCII digits, optional "
                f"leading -, q > 0), got {value!r}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--label", " +2"), ("--label", "\u0662"), ("--label", "1_0"), ("--label", "2 "),
        ("--max-pivots", "1_000"), ("--trials", "4_0"), ("--seed", "+1"), ("--L", "6_4"),
    ])
    def test_integer_flags_take_ascii_digits_only(self, flag, value, circuit_file,
                                                  fixture_file, tmp_path, capsys):
        # the wire's integer form is -?[0-9]+; int() would read each of these values
        game, out = str(tmp_path / "game.json"), tmp_path / "out.json"
        assert main(["reduce", circuit_file, "--target", "game", "-o", game]) == 0
        command = {"--L": ["compile", fixture_file], "--trials": ["verify", circuit_file],
                   "--seed": ["verify", circuit_file]}.get(flag, ["solve", game, "--method", "lh"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, value, "-o", str(out)])
        assert exc.value.code == 2
        assert (f"argument {flag}: expected an integer (ASCII digits, optional leading -), "
                f"got {value!r}") in capsys.readouterr().err
        assert not out.exists()

    def test_eps_zero_allowed(self):
        # a zero tolerance asks for an exact fixed point, which is admissible
        args = cli.build_parser().parse_args(
            ["verify", "c.json", "--mode", "approx", "--source", "b.json",
             "--compiled-meta", "c.json.meta.json", "--points", "0", "--eps", "0"])
        cli._check_args(args)

    @pytest.mark.parametrize("shrink,source_grid,points,message", [
        (False, None, "-1,0", "point '-1,0' needs 2 nonnegative coordinates"),
        (False, (1, 2), "0", "is for k=2, n=2, but"),
        (False, (2, 1), "0,0", "is for k=2, n=2, but"),
        # the fixed point 1055/1536, 2591/3072 of the unshrunk function, over 2^n - 1
        (True, None, "1055/4608,2591/9216", "extracted from the unshrunk"),
    ])
    def test_approx_mode(self, fixture_file, tmp_path, capsys, shrink, source_grid, points,
                         message):
        circ = str(tmp_path / "compiled.json")
        main(["compile", fixture_file, "-o", circ, "--no-grid-check"] + ["--shrink"] * shrink)
        source = fixture_file
        if source_grid:
            cb = brouwer.make_example_coloring(brouwer.Grid(*source_grid))
            source = write_json(tmp_path / "other.json", "brouwer", brouwer.bool_to_json(cb))
        capsys.readouterr()
        assert main(["verify", circ, "--mode", "approx", "--source", source,
                     "--compiled-meta", circ + ".meta.json", f"--points={points}"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["3/4", "1/2"])   # a fixed point and a moving one
    def test_approx_mode_refuses_shrunk_meta_before_any_point(self, point, compiled_1d, tmp_path,
                                                              capsys):
        source = str(Path(compiled_1d).parent / "brouwer.json")
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["verify", compiled_1d, "--mode", "approx", "--source", source,
                     "--compiled-meta", compiled_1d + ".meta.json", "--points", point,
                     "-o", str(report)]) == 2
        out, err = capsys.readouterr()
        assert "simplices are extracted from the unshrunk compiled circuit" in err
        assert "PASS" not in out and not report.exists()

    def test_approx_mode_needs_one_output_per_input(self, fixture_file, tmp_path, capsys):
        circ = tmp_path / "compiled.json"
        main(["compile", fixture_file, "-o", str(circ), "--no-grid-check"])
        doc = json.loads(circ.read_text())
        circ.write_text(json.dumps({**doc, "outputs": doc["outputs"][:1]}))
        capsys.readouterr()
        assert main(["verify", str(circ), "--mode", "approx", "--source", fixture_file,
                     "--compiled-meta", f"{circ}.meta.json", "--points", "0,0"]) == 2
        assert f"{circ}: 2 inputs but 1 outputs" in capsys.readouterr().err


def _first_gate(body, gate):
    return {**body, "gates": [gate] + body["gates"][1:]}


def _malformed(kind, body):
    """Malformed variants of a well-formed `kind` body; None means no file."""
    docs = {"missing_file": None, "not_an_object": [1, 2]}
    if kind in ("circuit", "brouwer"):
        docs["k_true"] = {**body, "k": True}
        docs["input_index_list"] = _first_gate(body, {"op": "input", "i": [0]})
        docs["gates_not_a_list"] = {**body, "gates": "x"}
        docs["unknown_op"] = _first_gate(body, {"op": "xor", "a": 0})
        if kind == "brouwer":
            # each decodes into a circuit over an empty grid
            docs["k_zero"] = {**body, "k": 0, "gates": [{"op": "const", "v": 0}], "outputs": []}
            docs["n_zero"] = {**body, "n": 0, "gates": [{"op": "const", "v": 0}],
                              "outputs": [0] * len(body["outputs"])}
            docs["input_past_last_bit"] = _first_gate(
                body, {"op": "input", "i": body["k"] * body["n"]})
            docs["const_not_a_bit"] = _first_gate(body, {"op": "const", "v": 2})
            docs["one_output_short"] = {**body, "outputs": body["outputs"][:-1]}
        if kind == "circuit":
            docs["no_inputs"] = {**body, "k": 0}
            docs["no_outputs"] = {**body, "outputs": []}
            docs["false_clamp_claim"] = fixp.circuit_to_json(false_clamp_claim_circuit())
            clamped = fixp.circuit_to_json(fixp.clamp_outputs(one_minus_circuit()))
            meta = clamped["meta"]
            docs["string_flag"] = {**clamped, "meta": {**meta, "max_zero_normalized": "false"}}
            # the clamp pair (7, 9): max{-1, -y} and max{0, -max{-1, -y}}, y = 1 - x
            docs["clamped_two_outputs"] = {**clamped, "outputs": [9, 9]}
            docs["clamped_no_pairs"] = {**clamped, "meta": {**meta, "clamp_pairs": []}}
            docs["clamped_output_not_outer"] = {**clamped, "outputs": [7]}
            docs["clamp_pair_not_max"] = {**clamped, "meta": {**meta, "clamp_pairs": [[6, 9]]}}
            # a max gate after the clamp pair decodes and evaluates; the LP needs
            # the clamp gates last
            docs["clamp_not_last"] = {
                **clamped, "gates": clamped["gates"] + [{"op": "max", "a": 5, "b": 0}],
                "meta": {**meta, "max_zero_normalized": True}}
    elif kind == "game":
        docs["meta_k_true"] = {**body, "meta": {**body["meta"], "k": True}}
        docs["without_meta"] = {key: v for key, v in body.items() if key != "meta"}
        docs["output_row_past_end"] = {**body, "meta": {**body["meta"], "output_rows": [7]}}
        docs["output_row_negative"] = {**body, "meta": {**body["meta"], "output_rows": [-1]}}
        docs["rows_mismatch"] = {**body, "rows": body["rows"] + 1}
        docs["k_not_output_count"] = {**body, "meta": {**body["meta"], "k": body["meta"]["k"] + 1}}
        docs["unknown_kind"] = {**body, "meta": {**body["meta"], "kind": "foo"}}
        # meta.c is null or a list of rationals; a falsy value of another type is neither
        for name, c in [("false", False), ("zero", 0), ("empty_string", ""), ("object", {})]:
            docs[f"c_{name}"] = {**body, "meta": {**body["meta"], "c": c}}
        # "1" is already parsed when the reader meets these entries
        last = body["A"][-1]
        docs["entry_true_after_1"] = {**body, "A": body["A"][:-1] + [last[:-1] + [True]]}
        docs["entry_float_after_1"] = {**body, "A": body["A"][:-1] + [last[:-1] + [1.0]]}
    elif kind == "compiled_meta":
        docs["L_true"] = {**body, "L": True}
    else:
        docs["stage_not_an_object"] = {"stages": ["eval"]}
    return docs


WELL_FORMED = {
    "circuit": fixp.circuit_to_json(one_minus_circuit()),
    "brouwer": brouwer.bool_to_json(brouwer.make_example_coloring(brouwer.Grid(2, 1))),
    "game": lcp.game_to_json(lcp.build_game(lcp.normalize(
        lp.build_param_lp(one_minus_circuit())[0]))),
    "compiled_meta": {"source_grid": {"k": 2, "n": 1}, "L": 32, "sample_count": 16,
                      "shrunk": False},
    "manifest": {"stages": [{"command": "eval", "input": "x.json", "args": {"at": "0"}}]},
}

# every way a command reads an artifact: its command line, with {bad} for
# the artifact under test, and the kind it expects there
READERS = {
    "compile": (["compile", "{bad}", "-o", "{out}"], "brouwer"),
    "oracle": (["oracle", "{bad}"], "brouwer"),
    "reduce": (["reduce", "{bad}", "--target", "game", "-o", "{out}"], "circuit"),
    "eval": (["eval", "{bad}", "--at", "0"], "circuit"),
    "verify_circuit": (["verify", "{bad}"], "circuit"),
    "verify_roundtrip": (["verify", "{bad}", "--mode", "roundtrip"], "circuit"),
    "verify_game": (["verify", "{bad}"], "game"),
    "verify_approx_input": (["verify", "{bad}", "--mode", "approx", "--source", "{brouwer}",
                             "--compiled-meta", "{compiled_meta}", "--points", "0,0"],
                            "circuit"),
    "verify_approx_source": (["verify", "{circuit}", "--mode", "approx", "--source", "{bad}",
                              "--compiled-meta", "{compiled_meta}", "--points", "0,0"],
                             "brouwer"),
    "verify_approx_meta": (["verify", "{circuit}", "--mode", "approx", "--source",
                            "{brouwer}", "--compiled-meta", "{bad}", "--points", "0,0"],
                           "compiled_meta"),
    "solve": (["solve", "{bad}"], "game"),
    "pipeline": (["pipeline", "{bad}"], "manifest"),
    "pipeline_stage": (["pipeline", "{manifest}"], "circuit"),
}

# a circuit that decodes but cannot be reduced is bad input only to the
# commands that reduce it to an LP (`eval`, for one, evaluates it fine)
REDUCING_READERS = {"reduce", "verify_circuit", "verify_roundtrip"}
IRREDUCIBLE = {"false_clamp_claim", "clamp_not_last"}
# the constructor guard each of these cases reaches, named in the refusal
GUARDS = {
    "input_past_last_bit": "input gate 0 index out of range",
    "const_not_a_bit": "const gate 0 must be 0 or 1",
    "one_output_short": "expected 4 outputs, got 3",
    "no_inputs": "circuit needs at least one input",
    "no_outputs": "circuit needs at least one output",
    "clamped_two_outputs": "clamped circuit must have k outputs",
    "clamped_no_pairs": "clamped circuit must record one clamp pair per output",
    "clamped_output_not_outer": "clamped outputs must be the outer clamp gates",
    "clamp_pair_not_max": "clamp pair refs must be max gates",
    "clamp_not_last": "clamp gates are not the final max gates in pair order",
}
MALFORMED_CASES = [(reader, case) for reader, (_, kind) in READERS.items()
                   for case in _malformed(kind, WELL_FORMED[kind])
                   if case not in IRREDUCIBLE or reader in REDUCING_READERS]


def _run_reader(reader, doc, tmp_path) -> int:
    """Exit code of `reader` with `doc` as its {bad} file (no file for None)
    and well-formed artifacts everywhere else."""
    argv, _ = READERS[reader]
    bad = tmp_path / "bad.json"
    if doc is not None:
        bad.write_text(json.dumps(doc))
    paths = {name: write_json(tmp_path / f"{name}.json", name, body)
             for name, body in WELL_FORMED.items() if name != "manifest"}
    paths["manifest"] = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
        {"command": "eval", "input": str(bad), "args": {"at": "0"}}]})
    paths.update(bad=str(bad), out=str(tmp_path / "out.json"))
    return main([arg.format(**paths) for arg in argv])


class TestInputValidation:
    @pytest.mark.parametrize("reader,case", MALFORMED_CASES,
                             ids=[f"{r}-{c}" for r, c in MALFORMED_CASES])
    def test_malformed_artifact_exits_2(self, reader, case, tmp_path, capsys):
        kind = READERS[reader][1]
        doc = _malformed(kind, WELL_FORMED[kind])[case]
        if isinstance(doc, dict):
            doc = {"schema": SCHEMA, "kind": kind, **doc}
        assert _run_reader(reader, doc, tmp_path) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "bad.json") in err and GUARDS.get(case, "") in err

    @pytest.mark.parametrize("target", ["game", "symmetric", "imitation"])
    @pytest.mark.parametrize("command", [["verify"], ["solve"], ["solve", "--method", "lh"]])
    def test_non_square_game_exits_2(self, target, command, circuit_file, tmp_path, capsys):
        # every game kind is (m+1)x(m+1); an extra column of zeros leaves the
        # output rows in range, so only the shape is wrong
        path = tmp_path / "game.json"
        assert main(["reduce", circuit_file, "--target", target, "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc.update(A=[row + ["0"] for row in doc["A"]], B=[row + ["0"] for row in doc["B"]],
                   cols=doc["cols"] + 1)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command[0], str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"{path}: malformed game" in err and "every game kind is square" in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_repeated_output_rows_exit_2(self, command, tmp_path, capsys):
        # the swap circuit's game carries its fixed point on rows 1 and 3;
        # read as [1, 1], coordinate 1 would stand for both
        circuit = write_json(tmp_path / "swap.json", "circuit",
                             fixp.circuit_to_json(swap_circuit()))
        path = tmp_path / "game.json"
        assert main(["reduce", circuit, "--target", "game", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["meta"]["output_rows"] == [1, 3]
        doc["meta"]["output_rows"] = [1, 1]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert f"{path}: malformed game" in err and "output rows [1, 1] repeat a row" in err
        assert "PASS" not in out and "lambda" not in out

    def test_non_wire_rational_exits_2(self, tmp_path, capsys):
        # int() reads "1_0" as 10; the wire form has no "_"
        path = write_json(tmp_path / "game.json", "game", {
            "rows": 2, "cols": 2, "A": [["1_0", "+0"], ["0", "1"]], "B": [["1", "0"], ["0", "1"]],
            "meta": {"m": 1, "k": 0, "c": None, "output_rows": [], "kind": "rank_k_plus_1"}})
        assert main(["solve", path, "--method", "lh", "-o", str(tmp_path / "out.json")]) == 2
        assert f"error: {path}: malformed game" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", [["solve"], ["verify"], ["pipeline"]])
    def test_deeply_nested_json_exits_2(self, command, tmp_path, capsys):
        # nested past the JSON parser's recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main([command[0], str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"{path}: not valid JSON" in err and "internal error" not in err

    def test_missing_file(self, capsys):
        assert main(["eval", "/nonexistent.json", "--at", "0"]) == 2

    def test_wrong_kind(self, fixture_file, capsys):
        assert main(["eval", fixture_file, "--at", "0"]) == 2

    def test_bad_schema(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"schema": "other/v9", "kind": "circuit"}))
        assert main(["eval", str(p), "--at", "0"]) == 2


# what a fuzzed field may become: wrong types, edge integers and odd strings
FUZZ_VALUES = [None, True, False, -1, 0, 1, 2, 3, 1.5, "", "x", "1/2", "-1/0", [], [0], {}]


def _json_paths(doc, path=()):
    """Every path of keys and indices into a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _json_paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


class TestCliFuzz:
    """Every reader reads a mutated artifact or refuses it: exit 0 or 2."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_artifact_exits_0_or_2(self, reader, data, tmp_path, capsys):
        kind = READERS[reader][1]
        doc = {"schema": SCHEMA, "kind": kind, **WELL_FORMED[kind]}
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
            doc = _replaced(doc, path, data.draw(st.sampled_from(FUZZ_VALUES), label="value"))
        assert _run_reader(reader, doc, tmp_path) in (0, 2)


class TestPipeline:
    def test_chained_stages(self, circuit_file, tmp_path, capsys):
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "verify", "input": circuit_file, "args": {"mode": "roundtrip"}},
            {"command": "reduce", "input": circuit_file,
             "output": str(tmp_path / "game.json"), "args": {"target": "game"}},
            {"command": "solve", "input": str(tmp_path / "game.json")},
        ]})
        assert main(["pipeline", manifest]) == 0

    def test_broken_chain_rejected(self, circuit_file, tmp_path):
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "reduce", "input": circuit_file,
             "output": str(tmp_path / "game.json"), "args": {"target": "game"}},
            {"command": "solve", "input": str(tmp_path / "other.json")},
        ]})
        assert main(["pipeline", manifest]) == 2

    def test_rejected_stage_flags_stop_the_run_before_any_stage(self, circuit_file, tmp_path,
                                                                capsys):
        game = tmp_path / "game.json"
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "reduce", "input": circuit_file,
             "output": str(game), "args": {"target": "game"}},
            {"command": "solve", "input": str(game), "args": {"method": "lh", "max_pivots": 5}},
        ]})
        assert main(["pipeline", manifest]) == 2
        out, err = capsys.readouterr()
        assert "stage 1: nashforge rejects" in err and "[stage 0]" not in out
        assert not game.exists()

    def test_non_wire_integer_refused_before_any_stage(self, circuit_file, tmp_path, capsys):
        game = tmp_path / "game.json"
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "reduce", "input": circuit_file,
             "output": str(game), "args": {"target": "game"}},
            {"command": "solve", "input": str(game), "args": {"method": "lh", "label": " +2"}},
        ]})
        assert main(["pipeline", manifest]) == 2
        out, err = capsys.readouterr()
        assert "stage 1: nashforge rejects" in err and "[stage 0]" not in out
        assert not game.exists()

    def test_failing_stage_ends_the_run(self, tmp_path, capsys):
        source, circuit = unshrunk_1d(tmp_path)
        game = tmp_path / "game.json"
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "verify", "input": circuit,
             "args": {"mode": "approx", "points": "0", "eps": 4, "source": source,
                      "compiled-meta": circuit + ".meta.json"}},
            {"command": "reduce", "input": circuit, "output": str(game),
             "args": {"target": "game"}},
        ]})
        capsys.readouterr()
        assert main(["pipeline", manifest]) == 2
        out = capsys.readouterr().out
        assert "[stage 0]" in out and "FAIL  simplex[0]" in out and "[stage 1]" not in out
        assert not game.exists()

    @pytest.mark.parametrize("args,code", [({"grid-check": False}, 2),
                                           ({"no-grid-check": True, "shrink": False}, 0)])
    def test_false_flag_must_turn_its_flag_off(self, fixture_file, tmp_path, args, code,
                                               capsys):
        out = tmp_path / "compiled.json"
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "compile", "input": fixture_file, "output": str(out), "args": args}]})
        assert main(["pipeline", manifest]) == code
        if code:
            assert '"grid-check": false does not turn --grid-check off' in capsys.readouterr().err
        else:
            meta = json.loads(Path(str(out) + ".meta.json").read_text())
            assert meta["shrunk"] is False
        assert out.exists() == (code == 0)

    def test_output_on_eval_stage_refused_before_any_stage(self, circuit_file, tmp_path,
                                                           capsys):
        # eval writes no file, so the next stage would read a leftover at its output
        leftover, game = tmp_path / "e.json", tmp_path / "g.json"
        leftover.write_text(Path(circuit_file).read_text())
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "eval", "input": circuit_file, "output": str(leftover),
             "args": {"at": "1/2"}},
            {"command": "reduce", "input": str(leftover), "output": str(game),
             "args": {"target": "game"}},
        ]})
        assert main(["pipeline", manifest]) == 2
        out, err = capsys.readouterr()
        assert "stage 0: nashforge rejects" in err and "[stage 0]" not in out
        assert not game.exists()

    def test_stale_artifact_at_a_later_input_is_rewritten(self, circuit_file, tmp_path):
        game = tmp_path / "g.json"
        game.write_text(Path(circuit_file).read_text())   # an old circuit where the game goes
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "reduce", "input": circuit_file, "output": str(game),
             "args": {"target": "game"}},
            {"command": "solve", "input": str(game)},
        ]})
        assert main(["pipeline", manifest]) == 0
        assert json.loads(game.read_text())["kind"] == "game"

    def test_bad_first_input_is_read_by_its_stage(self, circuit_file, tmp_path, capsys):
        manifest = write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "solve", "input": circuit_file}]})
        assert main(["pipeline", manifest]) == 2
        out, err = capsys.readouterr()
        assert "[stage 0]" in out and "expected kind 'game', got 'circuit'" in err

    # an args value that is no flag's argument would reach the command line
    # as its Python text, and an args key that sets the output writes the
    # file away from the stage's "output", where the next stage reads
    @pytest.mark.parametrize("args,message", [
        ({"target": "game", "report": None},
         '"report": null is no flag value'),
        ({"target": "game", "report": 1.5},
         '"report": 1.5 is no flag value'),
        ({"target": "game", "report": ["r.json"]},
         '"report": ["r.json"] is no flag value'),
        ({"target": "game", "out": "h.json"}, "args set --output h.json"),
        ({"target": "game", "output": "h.json"}, "args set --output h.json"),
    ], ids=["null", "float", "array", "out", "output"])
    @pytest.mark.parametrize("output", [None, "g.json"], ids=["no-output", "output"])
    def test_args_refused_before_any_stage(self, args, message, output, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "om.json", "circuit", fixp.circuit_to_json(one_minus_circuit()))
        stage = {"command": "reduce", "input": "om.json", "args": args}
        if output:
            stage["output"] = output
        write_json(tmp_path / "manifest.json", "manifest", {"stages": [
            {"command": "eval", "input": "om.json", "args": {"at": "1/2"}}, stage]})
        inputs = sorted(p.name for p in tmp_path.iterdir())
        assert main(["pipeline", "manifest.json"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: stage 1: {message}") and "[stage 0]" not in out
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    # (stage before, refused stage, message): each refusal needs only the
    # command line, so it stops a command and a whole pipeline before any write
    REFUSALS = [
        ({"command": "oracle", "input": "fixture.json"},
         {"command": "compile", "input": "fixture.json", "output": "c.json",
          "args": {"meta": "c.json"}},
         "--meta c.json is the output path"),
        *(({"command": "reduce", "input": "om.json", "output": "g2.json",
            "args": {"target": "game"}},
           {"command": "reduce", "input": "g2.json", "output": "x.json",
            "args": {"target": "lp", "report": report}},
           f"--report {report} is the output path") for report in ("x.json", "./x.json")),
        ({"command": "eval", "input": "om.json", "args": {"at": "1/2"}},
         {"command": "verify", "input": "om.json", "output": "v.json", "args": {"trials": 0}},
         "--trials must be at least 1, got 0"),
        ({"command": "eval", "input": "om.json", "args": {"at": "1/2"}},
         {"command": "verify", "input": "om.json", "output": "v.json",
          "args": {"mode": "approx", "points": "0", "compiled-meta": "c.json.meta.json"}},
         "--mode approx needs --source"),
        ({"command": "eval", "input": "om.json", "args": {"at": "1/2"}},
         {"command": "verify", "input": "om.json", "output": "v.json",
          "args": {"mode": "approx", "source": "fixture.json",
                   "compiled-meta": "c.json.meta.json"}},
         "--mode approx needs --points"),
        # the true fixed point 3/4 of 1 - x would read FAIL against a negative tolerance
        ({"command": "eval", "input": "om.json", "args": {"at": "1/2"}},
         {"command": "verify", "input": "om.json", "output": "v.json",
          "args": {"mode": "approx", "source": "fixture.json", "points": "3/4", "eps": -1,
                   "compiled-meta": "c.json.meta.json"}},
         "--eps must be at least 0, got -1"),
        ({"command": "reduce", "input": "om.json", "output": "g.json", "args": {"target": "game"}},
         {"command": "solve", "input": "g.json", "output": "ne.json", "args": {"max-pivots": 0}},
         "--max-pivots must be at least 1, got 0"),
        # only the lcp target has variants; any other would ignore the flag
        ({"command": "eval", "input": "om.json", "args": {"at": "1/2"}},
         {"command": "reduce", "input": "om.json", "output": "lp.json",
          "args": {"target": "lp", "variant": "direct"}},
         "--variant needs --target lcp, got --target lp"),
    ]

    @pytest.mark.parametrize("as_stage", [False, True], ids=["command", "stage"])
    @pytest.mark.parametrize("before,stage,message", REFUSALS,
                             ids=["meta", "report", "report-spelled", "trials", "source", "points",
                                  "eps", "max-pivots", "variant"])
    def test_command_line_refusal_writes_nothing(self, before, stage, message, as_stage,
                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "om.json", "circuit", fixp.circuit_to_json(one_minus_circuit()))
        write_json(tmp_path / "fixture.json", "brouwer", brouwer.bool_to_json(
            brouwer.make_example_coloring(brouwer.Grid(1, 1))))
        if as_stage:
            write_json(tmp_path / "manifest.json", "manifest", {"stages": [before, stage]})
            argv, message = ["pipeline", "manifest.json"], "stage 1: " + message
        else:
            argv = [stage["command"], stage["input"], "-o", stage["output"]]
            for flag, value in stage["args"].items():
                argv += [f"--{flag}", str(value)]
        inputs = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert message in err and "[stage 0]" not in out
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    # every command writes a kind other than the ones it reads, so an output
    # path that names a file it reads would replace that file
    @pytest.mark.parametrize("argv,message", [
        (["compile", "fixture.json", "-o", "fixture.json"],
         "--output fixture.json is the input path"),
        (["compile", "fixture.json", "-o", "c.json", "--meta", "./fixture.json"],
         "--meta ./fixture.json is the input path"),
        # the sidecar's default path is OUTPUT.meta.json
        (["compile", "c.json.meta.json", "-o", "c.json"],
         "--meta c.json.meta.json is the input path"),
        (["reduce", "om.json", "--target", "game", "-o", "om.json"],
         "--output om.json is the input path"),
        (["reduce", "om.json", "--target", "lp", "-o", "lp.json", "--report", "om.json"],
         "--report om.json is the input path"),
        (["verify", "om.json", "-o", "om.json"], "--output om.json is the input path"),
        (["verify", "c.json", "--mode", "approx", "--source", "fixture.json",
          "--compiled-meta", "c.json.meta.json", "--points", "0", "-o", "fixture.json"],
         "--output fixture.json is the source path"),
        (["verify", "c.json", "--mode", "approx", "--source", "fixture.json",
          "--compiled-meta", "c.json.meta.json", "--points", "0", "-o", "c.json.meta.json"],
         "--output c.json.meta.json is the compiled-meta path"),
        (["solve", "g.json", "-o", "g.json"], "--output g.json is the input path"),
        (["oracle", "fixture.json", "-o", "fixture.json"],
         "--output fixture.json is the input path"),
    ], ids=["compile", "compile-meta", "compile-default-meta", "reduce", "reduce-report",
            "verify", "verify-source", "verify-compiled-meta", "solve", "oracle"])
    @pytest.mark.parametrize("as_stage", [False, True], ids=["command", "stage"])
    def test_output_naming_a_file_read_is_refused(self, argv, message, as_stage, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "om.json", "circuit", fixp.circuit_to_json(one_minus_circuit()))
        write_json(tmp_path / "fixture.json", "brouwer", brouwer.bool_to_json(
            brouwer.make_example_coloring(brouwer.Grid(1, 1))))
        assert main(["compile", "fixture.json", "-o", "c.json"]) == 0
        assert main(["reduce", "om.json", "--target", "game", "-o", "g.json"]) == 0
        if as_stage:
            flags = iter(argv[2:])
            args = {"output" if flag == "-o" else flag[2:]: value
                    for flag, value in zip(flags, flags)}
            stage = {"command": argv[0], "input": argv[1], "output": args.pop("output"),
                     "args": args}
            write_json(tmp_path / "manifest.json", "manifest", {"stages": [stage]})
            argv, message = ["pipeline", "manifest.json"], "stage 0: " + message
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}; it would overwrite that file\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


class TestEmptyOutputPath:
    """An empty -o, --meta or --report names no file: it exits 2 naming the
    flag before any work, as a command and as a pipeline stage."""

    @pytest.mark.parametrize("argv,flag", [
        (["compile", "fixture.json", "-o", ""], "--output"),
        (["compile", "fixture.json", "-o", "c.json", "--meta", ""], "--meta"),
        (["reduce", "om.json", "--target", "lp", "-o", ""], "--output"),
        (["reduce", "om.json", "--target", "lp", "-o", "lp.json", "--report", ""], "--report"),
        (["verify", "om.json", "-o", ""], "--output"),
        (["solve", "g.json", "-o", ""], "--output"),
        (["oracle", "fixture.json", "-o", ""], "--output"),
    ], ids=["compile", "compile-meta", "reduce", "reduce-report", "verify", "solve", "oracle"])
    @pytest.mark.parametrize("as_stage", [False, True], ids=["command", "stage"])
    def test_refused_before_any_work(self, argv, flag, as_stage, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "om.json", "circuit", fixp.circuit_to_json(one_minus_circuit()))
        write_json(tmp_path / "fixture.json", "brouwer", brouwer.bool_to_json(
            brouwer.make_example_coloring(brouwer.Grid(1, 1))))
        assert main(["reduce", "om.json", "--target", "game", "-o", "g.json"]) == 0
        message = f"{flag} is empty; it names no file"
        if as_stage:
            flags = iter(argv[2:])
            args = {"output" if f == "-o" else f[2:]: value for f, value in zip(flags, flags)}
            stage = {"command": argv[0], "input": argv[1], "output": args.pop("output"),
                     "args": args}
            write_json(tmp_path / "manifest.json", "manifest", {"stages": [stage]})
            argv, message = ["pipeline", "manifest.json"], "stage 0: " + message
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


class TestConsoleEntry:
    def test_module_invocation(self, circuit_file):
        # the child imports this same package, installed or not
        src = str(Path(nashforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "nashforge", "eval",
                               circuit_file, "--at", "1/2"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == ["1/2"]
