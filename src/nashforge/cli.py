"""Command-line driver for the reduction pipeline.

One JSON artifact per file, tagged "schema": "nashforge/v1" plus a "kind";
every command is deterministic given its inputs and flags (reruns are
byte-identical).  Exit codes: 0 success, 1 internal error, 2 input
validation failure, 3 lemma-falsification alarm.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

from . import battery, brouwer, compiler, lcp, lp, nash
from .exactmath import int_from_str, rat_from_str, rat_to_str, vec_to_strs
from .fixp import FixpCircuit, circuit_from_json, circuit_to_json, evaluate

SCHEMA = "nashforge/v1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_INPUT = 2
EXIT_LEMMA_ALARM = 3


class InputError(Exception):
    """Bad file, schema mismatch or malformed values: exit code 2."""


# the commands a pipeline stage may run
_STAGE_COMMANDS = ("compile", "reduce", "verify", "solve", "oracle", "eval")


def _stages_from_json(doc: dict) -> list[dict]:
    stages = doc["stages"]
    if not (isinstance(stages, list) and stages):
        raise ValueError("manifest needs a nonempty stages list")
    for i, stage in enumerate(stages):
        if not (isinstance(stage, dict) and stage.get("command") in _STAGE_COMMANDS
                and isinstance(stage.get("input"), str)
                and isinstance(stage.get("output", ""), str)
                and isinstance(stage.get("args", {}), dict)):
            raise ValueError(f"stage {i} needs a command in {sorted(_STAGE_COMMANDS)}, a string"
                             " input, an optional string output and an optional args object")
    return stages


_DECODERS = {
    "brouwer": brouwer.bool_from_json,
    "circuit": circuit_from_json,
    "game": lcp.game_from_json,
    "compiled_meta": compiler.compiled_meta_from_json,
    "manifest": _stages_from_json,
}


def _load(path: str, *kinds: str):
    """Read an artifact of one of `kinds` and decode it; any defect is an InputError."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"{path}: cannot read file ({exc.strerror or exc})")
    except (ValueError, RecursionError) as exc:
        # a document nested past the parser's recursion limit is not JSON it can read
        raise InputError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        raise InputError(f"{path}: expected schema {SCHEMA!r}, got {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind not in kinds:
        raise InputError(f"{path}: expected kind {' or '.join(map(repr, kinds))}, got {kind!r}")
    try:
        return _DECODERS[kind](doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed {kind} ({type(exc).__name__}: {exc})")


def _save(path: str, kind: str, body: dict):
    """Stream the artifact to `path`.  A regular file (a symlink's target, if
    `path` is a link) is written beside it and then moved there, keeping an
    existing file's mode, so a failed encode leaves it as it was and no
    temporary file; anything else, such as a device, is written in place.
    A file that cannot be written is an InputError naming `path`."""
    doc = {"schema": SCHEMA, "kind": kind}
    doc.update(body)
    target = Path(path).resolve()
    try:
        if target.exists() and not target.is_file():
            with target.open("w") as f:
                _dump(doc, f)
            return
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("w") as f:
                _dump(doc, f)
            if target.exists():
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise InputError(f"{path}: cannot write file ({exc.strerror or exc})") from None


def _dump(doc: dict, f):
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")


def _param_lp(path: str, circ: FixpCircuit) -> tuple[lp.ParamLP, FixpCircuit]:
    """The circuit's LP; a circuit that cannot be reduced is an InputError naming path."""
    try:
        return lp.build_param_lp(circ)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _parse_point(text: str) -> list[Fraction]:
    try:
        return [rat_from_str(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad point {text!r}: {exc}")


def _int_flag(text: str) -> int:
    try:
        return int_from_str(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer (ASCII digits, optional leading -), got {text!r}") from None


def _rat_flag(text: str) -> Fraction:
    try:
        return rat_from_str(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a rational p or p/q (ASCII digits, optional leading -, q > 0), "
            f"got {text!r}") from None


def _validated(cb: brouwer.BoolCircuit) -> bool:
    report = brouwer.validate_circuit(cb)
    if not report.ok:
        print("validation: FAIL")
        for p, reason in report.violations[:10]:
            print(f"  at {p}: {reason}")
    return report.ok


def _check_args(args):
    """The refusals that need only the command line: `main` runs them before
    the command, `pipeline` for every stage before the first stage runs."""
    for flag in ("output", "meta", "report"):
        if getattr(args, flag, None) == "":
            raise InputError(f"--{flag} is empty; it names no file")
    # every command writes kinds other than those it reads, and compile
    # --meta and reduce --report name a second file beside -o
    named = {}
    for flag in ("input", "source", "compiled_meta", "output", "meta", "report"):
        path = getattr(args, flag, None)
        if flag == "meta" and args.command == "compile":
            path = path or args.output + ".meta.json"    # the default sidecar
        if path:
            first = named.setdefault(Path(path).resolve(), flag)
            if first != flag and flag in ("output", "meta", "report"):
                raise InputError(f"--{flag} {path} is the {first.replace('_', '-')} path;"
                                 " it would overwrite that file")
    # compile's default OUTPUT.meta.json shares the output's directory
    for flag in ("output", "meta", "report"):
        path = getattr(args, flag, None)
        if path and not Path(path).parent.is_dir():
            raise InputError(f"{path}: cannot write it, {Path(path).parent} is not a directory")
    if args.command == "verify":
        if args.mode == "lemmas" and args.trials < 1:
            # an empty semimonotone battery would pass vacuously
            raise InputError(f"--trials must be at least 1, got {args.trials}")
        if args.mode == "approx" and not (args.source and args.compiled_meta):
            raise InputError("--mode approx needs --source (brouwer.json) and --compiled-meta")
        if args.mode == "approx" and not args.points:
            raise InputError("--mode approx needs --points \"p1,p2;q1,q2;...\"")
        if args.eps is not None and args.eps < 0:
            # no point is within a negative distance of its image
            raise InputError(f"--eps must be at least 0, got {rat_to_str(args.eps)}")
    if args.command == "reduce" and args.variant and args.target != "lcp":
        raise InputError(f"--variant needs --target lcp, got --target {args.target}")
    if args.command == "solve" and args.max_pivots < 1:
        raise InputError(f"--max-pivots must be at least 1, got {args.max_pivots}")


# --- commands -------------------------------------------------------------

def cmd_compile(args) -> int:
    meta_path = args.meta or args.output + ".meta.json"
    cb = _load(args.input, "brouwer")
    if not _validated(cb):
        return EXIT_INVALID_INPUT
    try:
        params = (compiler.default_params(cb) if args.L is None
                  else compiler.SamplingParams(args.L, compiler.sample_count_for(cb.k)))
    except ValueError as exc:
        raise InputError(f"{args.input}: no admissible sampling density ({exc})")
    cf = compiler.compile_brouwer(cb, params=params, validate=False)
    print(f"validation: PASS ({cb.k}D, n={cb.n}, L={cf.params.L}, "
          f"samples={cf.params.sample_count})")
    if args.grid_check:
        bad = compiler.grid_restriction_violations(cf)
        if bad:
            print(f"grid-restriction check: FAIL at {bad[0][0]}")
            return EXIT_LEMMA_ALARM
        print("grid-restriction check: PASS")
    if args.shrink:
        cf = compiler.shrink_range(cf)
    _save(args.output, "circuit", circuit_to_json(cf.circuit))
    _save(meta_path, "compiled_meta", compiler.compiled_meta_json(cf))
    print(f"wrote {args.output} and {meta_path}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    P, _ = _param_lp(args.input, _load(args.input, "circuit"))
    lines = [f"m={P.m} k={P.k} n={P.npre}"]
    # a failed line is a lemma alarm, raised before any file is written
    problems = lp.property_violations(P)
    if problems:
        raise lcp.LemmaFalsified(f"structure checks P1-P3: FAIL {problems[0]}")
    lines.append("structure checks P1-P3: PASS")
    if args.target == "lp":
        artifact_kind, body = "param_lp", lp.lp_to_json(P)
    elif args.target == "lcp":
        if args.variant == "direct":
            artifact_kind, body = "lcp", lcp.lcp_to_json(lcp.build_direct_lcp(P))
        else:
            artifact_kind, body = "lcp", lcp.lcp_to_json(lcp.normalize(P))
    elif args.target == "game":
        game = lcp.build_game(lcp.normalize(P))
        lines.append("first matrix upper-triangular: PASS")
        rk = lcp.payoff_sum_rank(game.A_rows, game.B_rows)
        rank_line = f"rank(A+B) = {rk} <= k+1 = {P.k + 1}"
        if rk > P.k + 1:
            raise lcp.LemmaFalsified(f"{rank_line}: FAIL")
        lines.append(f"{rank_line}: PASS")
        artifact_kind, body = "game", lcp.game_to_json(game)
    elif args.target == "symmetric":
        artifact_kind, body = "game", lcp.game_to_json(lcp.build_symmetric_game(P))
    else:
        artifact_kind, body = "game", lcp.game_to_json(
            lcp.imitation_game(lcp.build_symmetric_game(P)))
    _save(args.output, artifact_kind, body)
    for line in lines:
        print(line)
    if args.report:
        _save(args.report, "reduce_report", {"target": args.target, "lines": lines})
    print(f"wrote {args.output}")
    return EXIT_OK


def _lemma_inputs(P: lp.ParamLP, seed: int, trials: int) -> tuple[list, list]:
    """The lambda probes, then the `trials` semimonotone (z, q) draws, from `seed`."""
    rng = random.Random(seed)
    lams = [[Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(P.k)]
            for _ in range(max(5, trials // 40))]
    draws = []
    for _ in range(trials):
        z = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(2 * P.m)]
        if all(v == 0 for v in z):
            z[rng.randrange(2 * P.m)] = Fraction(1)
        q = [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(2 * P.m)]
        draws.append((z, q))
    return lams, draws


def _approx_inputs(args):
    """The compiled function, the (text, point) pairs and eps of `--mode approx`."""
    circ = _load(args.input, "circuit")
    cb = _load(args.source, "brouwer")
    grid, params, shrunk = _load(args.compiled_meta, "compiled_meta")
    if shrunk:
        # refused before any point: eps = 1/L is scaled for the unshrunk box too
        raise InputError(f"{args.compiled_meta}: simplices are extracted from the"
                         " unshrunk compiled circuit")
    if (circ.k, cb.k, cb.n) != (grid.k, grid.k, grid.n):
        raise InputError(f"{args.compiled_meta} is for k={grid.k}, n={grid.n}, but {args.input}"
                         f" has {circ.k} inputs and {args.source} k={cb.k}, n={cb.n}")
    if len(circ.outputs) != circ.k:
        raise InputError(f"{args.input}: {circ.k} inputs but {len(circ.outputs)} outputs")
    cf = compiler.CompiledFunction(circ, cb, grid, params, shrunk)
    eps = Fraction(1, params.L) if args.eps is None else args.eps
    points = []
    for text in args.points.split(";"):
        p = _parse_point(text)
        if len(p) != grid.k or min(p) < 0:
            raise InputError(f"point {text!r} needs {grid.k} nonnegative coordinates")
        points.append((text, p))
    return cf, points, eps


def _alarmed(records):
    """The records, then a failed `lemma_falsification_alarm` if they raise LemmaFalsified."""
    try:
        yield from records
    except lcp.LemmaFalsified as exc:
        yield battery.Check("lemma_falsification_alarm", False, str(exc))


def cmd_verify(args) -> int:
    if args.mode == "approx":
        records = battery.approx_points(*_approx_inputs(args))
    else:
        artifact = _load(args.input, "game", "circuit")
        if isinstance(artifact, lcp.BimatrixGame):
            if args.mode == "roundtrip":
                raise InputError(f"{args.input}: --mode roundtrip needs a circuit, got a game")
            records = battery.game_checks(artifact)
        elif args.mode == "roundtrip":
            records = battery.roundtrip(*_param_lp(args.input, artifact))
        else:
            P, prepared = _param_lp(args.input, artifact)
            # the battery ends in enumerating the (m+1)x(m+1) games; refuse
            # before drawing its inputs and running the rank and semimonotone checks
            nash.check_dimension(P.m + 1, P.m + 1)
            lams, draws = _lemma_inputs(P, args.seed, args.trials)
            records = battery.circuit_lemmas(P, prepared, lams, draws)
    checks = []
    for check in _alarmed(records):
        status = "PASS" if check.ok else "FAIL"
        checks.append({"name": check.name, "status": status, "detail": check.detail})
        print(f"{status}  {check.name}" + (f"  ({check.detail})" if check.detail else ""))
    alarm = checks[-1]["name"] == "lemma_falsification_alarm"
    ok = all(c["status"] == "PASS" for c in checks)
    if args.output:
        _save(args.output, "verify_report", {"mode": args.mode, "checks": checks, "ok": ok})
    if alarm:
        return EXIT_LEMMA_ALARM
    return EXIT_OK if ok else EXIT_INVALID_INPUT


def cmd_solve(args) -> int:
    game = _load(args.input, "game")
    entries = []
    degenerate = False
    if args.method == "lh":
        labels = 2 * len(game.A_rows)     # every game is square
        if not 0 <= args.label < labels:
            raise InputError(f"--label must lie in 0..{labels - 1}, got {args.label}")
        certs = [nash.lemke_howson(game.A, game.B, args.label, max_pivots=args.max_pivots)]
    else:
        res = nash.enumerate_ne(game.A, game.B)
        certs = list(res.equilibria)
        degenerate = res.degenerate
    for cert in certs:
        entry = {
            "x": vec_to_strs(cert.x[:-1]), "s": rat_to_str(cert.x[-1]),
            "y": vec_to_strs(cert.y[:-1]), "t": rat_to_str(cert.y[-1]),
            "pi1": rat_to_str(cert.pi1), "pi2": rat_to_str(cert.pi2),
        }
        # the fixed-point carrier depends on the construction: first player
        # for the rank-(k+1) game, second player for imitation games, and
        # the shared strategy of symmetric profiles for (S, S^T)
        carrier = None
        if game.meta.output_rows:
            carrier = {"rank_k_plus_1": cert.x, "imitation": cert.y}.get(
                game.meta.kind, cert.x if cert.x == cert.y else None)
        if carrier is not None and carrier[-1] > 0:
            entry["lambda"] = vec_to_strs(lcp.game_to_fixed_point(carrier, game.meta))
        entries.append(entry)
    body = {"entries": entries, "degenerate": degenerate}
    if args.output:
        _save(args.output, "ne_report", body)
    print(json.dumps(body["entries"], indent=2, sort_keys=True))
    return EXIT_OK


def cmd_oracle(args) -> int:
    cb = _load(args.input, "brouwer")
    if not _validated(cb):
        return EXIT_INVALID_INPUT
    # _validated has scanned the grid; brute_force_fixtures would scan it again
    cubes = brouwer.panchromatic_cubes(lambda p: brouwer.color_at(cb, p), cb.grid)
    body = {
        "validation": "PASS",
        "panchromatic_cubes": [
            {"base": list(c.base),
             "simplices": [[list(v) for v in s] for s in c.simplices]}
            for c in cubes
        ],
    }
    if args.output:
        _save(args.output, "oracle_report", body)
    print(f"validation: PASS; {len(cubes)} panchromatic cube(s)")
    for c in cubes:
        print(f"  base {tuple(c.base)}: {len(c.simplices)} simplex/simplices")
    return EXIT_OK


def cmd_eval(args) -> int:
    circ = _load(args.input, "circuit")
    point = _parse_point(args.at)
    if len(point) != circ.k:
        raise InputError(f"circuit expects {circ.k} inputs")
    out = evaluate(circ, point)
    print(json.dumps(vec_to_strs(out)))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    stages = _load(args.input, "manifest")
    runs = []
    prev_output = None
    # every stage is parsed and checked before the first one writes its files;
    # no artifact is read, as a later stage's input is an earlier one's output
    for i, stage in enumerate(stages):
        inp = stage["input"]
        if i > 0 and inp != prev_output:
            raise InputError(f"stage {i}: input {inp!r} does not chain from previous"
                             f" output {prev_output!r}")
        prev_output = stage.get("output", inp)
        opts = []
        flags = sorted(stage.get("args", {}).items())
        for flag, value in flags:
            if type(value) not in (str, int, bool):
                raise InputError(f"stage {i}: \"{flag}\": {json.dumps(value)} is no flag value")
            if value is True:
                opts.append(f"--{flag}")
            elif value is not False:
                opts.extend([f"--{flag}", str(value)])
        # eval takes no -o, so its parse refuses an output nothing would write
        out = ["-o", stage["output"]] if "output" in stage else []
        argv = [stage["command"], inp, *opts, *out]
        try:
            # -o first, so an args key that sets the output too wins and is refused
            parsed = build_parser().parse_args([stage["command"], inp, *out, *opts])
        except SystemExit:
            raise InputError(f"stage {i}: nashforge rejects {' '.join(argv)!r}") from None
        if getattr(parsed, "output", None) != stage.get("output"):
            raise InputError(f"stage {i}: args set --output {parsed.output}; set it in \"output\"")
        for flag, value in flags:
            if value is False and getattr(parsed, flag.replace("-", "_"), None) is not False:
                raise InputError(f"stage {i}: \"{flag}\": false does not turn --{flag} off")
        try:
            _check_args(parsed)
        except InputError as exc:
            raise InputError(f"stage {i}: {exc}") from None
        runs.append((argv, parsed))
    for i, (argv, parsed) in enumerate(runs):
        print(f"[stage {i}] nashforge " + " ".join(argv))
        code = parsed.func(parsed)
        if code != EXIT_OK:
            return code
    return EXIT_OK


# --- wiring ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nashforge",
                                description="discrete Brouwer -> circuits -> LPs -> LCPs -> games")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a mapping circuit to a piecewise-linear circuit")
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--meta", help="sidecar metadata path (default: OUTPUT.meta.json)")
    c.add_argument("--L", type=_int_flag, help="sampling density (power of two)")
    c.add_argument("--shrink", action="store_true", help="rescale to the unit box")
    c.add_argument("--grid-check", action=argparse.BooleanOptionalAction, default=True)
    c.set_defaults(func=cmd_compile)

    r = sub.add_parser("reduce", help="reduce a circuit to an LP/LCP/game artifact")
    r.add_argument("input")
    r.add_argument("--target", required=True,
                   choices=["lp", "lcp", "game", "symmetric", "imitation"])
    r.add_argument("--variant", choices=["two_sided", "direct"])
    r.add_argument("-o", "--output", required=True)
    r.add_argument("--report")
    r.set_defaults(func=cmd_reduce)

    v = sub.add_parser("verify", help="run the lemma batteries against an artifact")
    v.add_argument("input")
    v.add_argument("--mode", choices=["roundtrip", "lemmas", "approx"], default="lemmas")
    v.add_argument("--seed", type=_int_flag, default=0)
    v.add_argument("--trials", type=_int_flag, default=200)
    v.add_argument("--source", help="brouwer.json for --mode approx")
    v.add_argument("--compiled-meta", help="compiled sidecar for --mode approx")
    v.add_argument("--points", help="semicolon-separated candidate points")
    v.add_argument("--eps", type=_rat_flag, help="approximation tolerance (default 1/L)")
    v.add_argument("-o", "--output")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve", help="enumerate equilibria or run Lemke-Howson")
    s.add_argument("input")
    s.add_argument("--method", choices=["enumerate", "lh"], default="enumerate")
    s.add_argument("--label", type=_int_flag, default=0)
    s.add_argument("--max-pivots", type=_int_flag, default=nash.MAX_PIVOTS,
                   help="Lemke-Howson pivot bound (default %(default)s)")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_solve)

    o = sub.add_parser("oracle", help="brute-force panchromatic cubes of a mapping circuit")
    o.add_argument("input")
    o.add_argument("-o", "--output")
    o.set_defaults(func=cmd_oracle)

    e = sub.add_parser("eval", help="evaluate a circuit at a point")
    e.add_argument("input")
    e.add_argument("--at", required=True, help="comma-separated rationals")
    e.set_defaults(func=cmd_eval)

    m = sub.add_parser("pipeline", help="run a manifest of chained stages")
    m.add_argument("input")
    m.set_defaults(func=cmd_pipeline)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except (InputError, brouwer.GridTooLarge, brouwer.InvalidBrouwerCircuit,
            nash.DimensionTooLarge, nash.PivotLimitReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except lcp.LemmaFalsified as exc:
        print(f"lemma falsification alarm: {exc}", file=sys.stderr)
        return EXIT_LEMMA_ALARM
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())
