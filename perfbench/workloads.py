"""The three workloads: seeded inputs, one timed pass, and the referee.

Each workload is three functions:

* `setup(seed)` builds the inputs; it runs before any timing and is what
  `setup_s` measures;
* `run_pass(api, inputs)` is the timed work, reaching nashforge only
  through `api` so that a traced pass records a span per public call;
  it returns the outputs and, per item, the readings of `clock.now` at
  its start and end;
* `referee(api, inputs, out, checks)` checks the outputs, untimed, with
  functions independent of the ones that produced them.

`counters(out)` and `artifacts(out)` give the deterministic figures that
must repeat exactly from run to run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from nashforge import brouwer, fixp, lcp
from nashforge.cli import SCHEMA
from clock import now


class Checks:
    """Operations attempted and failed; a failure keeps its description."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.tallies: dict[str, list[int]] = {}

    def add(self, name: str, ok: bool, tally: str | None = None):
        """Count one check; `tally` also counts it under that key as [ok, total]."""
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        if tally is not None:
            counts = self.tallies.setdefault(tally, [0, 0])
            counts[0] += ok
            counts[1] += 1

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class PassResult:
    out: object
    item_spans: list[tuple[float, float]]    # clock.now() at each item's start and end
    errors: list[str] = field(default_factory=list)


def artifact_text(game) -> str:
    """A game artifact exactly as `nashforge reduce` writes it."""
    doc = {"schema": SCHEMA, "kind": "game"}
    doc.update(lcp.game_to_json(game))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _lp_counters(P, prepared) -> dict:
    return {
        "fixp.max_gates": sum(isinstance(g, fixp.Max) for g in prepared.gates),
        "lp.m": P.m,
        "lp.nnz": sum(v != 0 for row in P.A for v in row),
        "lp.dense_entries": P.m * P.m,
        "lp.cost_bits": max(_bits(v) for v in P.c + P.beta),
    }


def _payoff_bits(*mats) -> int:
    return max(_bits(v) for mat in mats for row in mat for v in row)


def _sum_counters(rows: list[dict], maxed: tuple[str, ...]) -> dict:
    total: dict = {}
    for row in rows:
        for key, value in row.items():
            total[key] = max(total.get(key, 0), value) if key in maxed else \
                total.get(key, 0) + value
    return total


def _fixed_point_of(x_full, output_rows):
    """The fixed point a first-player strategy carries, computed apart
    from lcp.game_to_fixed_point."""
    return [x_full[r] / x_full[-1] for r in output_rows]


def _compile_and_reduce(nf, cb):
    """validate -> compile -> grid check -> shrink -> clamp/normalize ->
    constraints -> cost, the front of every compiled-instance chain."""
    report = nf.brouwer.validate_circuit(cb)
    cf = nf.compiler.compile_brouwer(cb, validate=False)
    grid_bad = nf.compiler.grid_restriction_violations(cf)
    shrunk = nf.compiler.shrink_range(cf)
    prepared = nf.fixp.normalize_max_zero(nf.fixp.clamp_outputs(shrunk.circuit))
    P = nf.lp.with_cost(nf.lp.build_constraints(prepared))
    return report, cf, grid_bad, prepared, P


def _compiled_counters(cf, prepared, P) -> dict:
    return {"compiler.gates": len(cf.circuit.gates), **_lp_counters(P, prepared)}


# --- chain_1d -------------------------------------------------------------

@dataclass
class ChainInputs:
    cb: object


@dataclass
class ChainOut:
    report: object
    cf: object
    grid_bad: list
    prepared: object
    P: object
    game: object
    cert: object
    lam: list
    simplex: tuple


def chain_setup(seed: int) -> ChainInputs:
    # The instance is fixed: it is the only compiled one that finishes end
    # to end within seconds.  The seed changes nothing here.
    return ChainInputs(brouwer.make_example_coloring(brouwer.Grid(1, 1)))


def chain_pass(nf, inp: ChainInputs) -> PassResult:
    with nf.item(0):
        t0 = now()
        report, cf, grid_bad, prepared, P = _compile_and_reduce(nf, inp.cb)
        game = nf.lcp.build_game(nf.lcp.normalize(P))
        cert = nf.nash.lemke_howson(game.A, game.B, 0, max_dim=len(game.A))
        lam = nf.lcp.game_to_fixed_point(cert.x, game.meta)
        point = [v * (cf.grid.side - 1) for v in lam]
        simplex = nf.compiler.extract_panchromatic_simplex(point, cf)
        t1 = now()
    return PassResult(ChainOut(report, cf, grid_bad, prepared, P, game, cert, lam, simplex),
                      [(t0, t1)])


def chain_referee(nf, inp: ChainInputs, out: ChainOut, checks: Checks):
    game, cert = out.game, out.cert
    checks.add("chain_1d: source circuit valid", out.report.ok)
    checks.add("chain_1d: compiled circuit matches the discrete map", not out.grid_bad)
    checks.add("chain_1d: LH profile is an equilibrium",
               nf.nash.check_ne(game.A, game.B, cert.x, cert.y), tally="nash.lemke_howson")
    checks.add("chain_1d: slack weights positive", cert.x[-1] > 0 and cert.y[-1] > 0)
    lam = _fixed_point_of(cert.x, game.meta.output_rows)
    checks.add("chain_1d: lambda is the profile's fixed point", lam == out.lam)
    checks.add("chain_1d: lambda is an exact fixed point",
               nf.fixp.evaluate(out.prepared, out.lam) == out.lam)
    base = tuple(min(q[i] for q in out.simplex) for i in range(out.cf.grid.k))
    known = {c.base for c in nf.brouwer.brute_force_fixtures(inp.cb)}
    checks.add("chain_1d: simplex lies in a panchromatic cube", base in known)


def chain_counters(out: ChainOut) -> dict:
    return {**_compiled_counters(out.cf, out.prepared, out.P),
            "lcp.game_dim": len(out.game.A),
            "lcp.payoff_bits": _payoff_bits(out.game.A, out.game.B),
            "nash.equilibria": 1}


def chain_artifacts(out: ChainOut) -> dict[str, str]:
    return {"game": artifact_text(out.game)}


# --- reduce_2d ------------------------------------------------------------

@dataclass
class ReduceInputs:
    cb: object
    lams: list
    workdir: Path


@dataclass
class ReduceOut:
    report: object
    cf: object
    grid_bad: list
    prepared: object
    P: object
    game: object
    sym: object
    xs: list
    texts: dict
    read_back: dict


def reduce_setup(seed: int, workdir: Path) -> ReduceInputs:
    rng = random.Random(seed)
    lams = [[Fraction(rng.randint(-16, 48), rng.randint(1, 16)) for _ in range(2)]
            for _ in range(4)]
    return ReduceInputs(brouwer.make_example_coloring(brouwer.Grid(2, 4)), lams, workdir)


def reduce_pass(nf, inp: ReduceInputs) -> PassResult:
    with nf.item(0):
        t0 = now()
        report, cf, grid_bad, prepared, P = _compile_and_reduce(nf, inp.cb)
        game = nf.lcp.build_game(nf.lcp.normalize(P))
        sym = nf.lcp.build_symmetric_game(P)
        xs = [nf.lp.solve_lp(P, lam) for lam in inp.lams]
        texts, read_back = {}, {}
        for name, g in (("game", game), ("symmetric", sym)):
            path = inp.workdir / f"reduce_2d-{name}.json"
            # the spans take in the JSON text and the file, as the CLI does
            with nf.span("lcp.game_to_json"):
                texts[name] = artifact_text(g)
                path.write_text(texts[name])
            with nf.span("lcp.game_from_json"):
                read_back[name] = lcp.game_from_json(json.loads(path.read_text()))
        t1 = now()
    return PassResult(ReduceOut(report, cf, grid_bad, prepared, P, game, sym, xs,
                                texts, read_back), [(t0, t1)])


def reduce_referee(nf, inp: ReduceInputs, out: ReduceOut, checks: Checks):
    checks.add("reduce_2d: source circuit valid", out.report.ok)
    checks.add("reduce_2d: compiled circuit matches the discrete map", not out.grid_bad)
    checks.add("reduce_2d: LP structure P1-P3 holds", not nf.lp.property_violations(out.P))
    order = nf.fixp.order_max_gates(out.prepared)
    for lam, x in zip(inp.lams, out.xs):
        _, trace = nf.fixp.evaluate_with_trace(out.prepared, lam)
        checks.add(f"reduce_2d: solve_lp equals the max-gate trace at {lam}",
                   [trace[g] for g in order] == x)
    sym_t = [list(col) for col in zip(*out.sym.S)]
    expect = {"game": (out.game.A, out.game.B, out.game.meta),
              "symmetric": (out.sym.S, sym_t, out.sym.meta)}
    for name, (A, B, meta) in expect.items():
        back = out.read_back[name]
        checks.add(f"reduce_2d: {name} artifact reads back as written",
                   back.A == A and back.B == B and back.meta == meta)


def reduce_counters(out: ReduceOut) -> dict:
    return {**_compiled_counters(out.cf, out.prepared, out.P),
            "lcp.game_dim": len(out.game.A),
            "lcp.payoff_bits": _payoff_bits(out.game.A, out.game.B, out.sym.S)}


def reduce_artifacts(out: ReduceOut) -> dict[str, str]:
    return dict(out.texts)


# --- verify_small ---------------------------------------------------------

# (inputs k, source max gates, circuits).  The strata fix every circuit's
# LP size m = max gates + 2k, so that seeds change the numbers in the
# circuits but not the shape of the work.  Per-circuit time grows with m,
# and the counts put the median (rank 24.5 of 48) in the middle of the
# third stratum and the tail (rank 38) inside the fourth, while a pass
# stays short enough for two in one run.
STRATA = ((1, 0, 8), (1, 1, 8), (2, 0, 19), (2, 1, 13))
SOURCE_OPS = 6
CONST_BOUND = 255
LP_PROBES = 5
SEMIMONOTONE_TRIALS = 40


@dataclass
class VerifyItem:
    circuit: object
    lams: list
    draws: list


@dataclass
class VerifyInputs:
    items: list


@dataclass
class VerifyItemOut:
    prepared: object
    P: object
    game: object
    sym: object
    structure: list
    lp_matches: bool
    witnessed: int
    res: object
    sres: object
    ires: object
    routes_ok: bool
    lams: set
    sym_lams: set
    lh: list


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-CONST_BOUND, CONST_BOUND), rng.randint(1, CONST_BOUND))


def _random_circuit(rng: random.Random, k: int, max_gates: int):
    """Random DAG over the full basis with exactly `max_gates` max gates."""
    b = fixp.Builder(k)
    refs = [b.input(i) for i in range(k)]
    max_at = set(rng.sample(range(SOURCE_OPS), max_gates))
    for step in range(SOURCE_OPS):
        if step in max_at:
            refs.append(b.maxg(rng.choice(refs), rng.choice(refs)))
            continue
        op = rng.choice(("const", "add", "mulc"))
        if op == "const":
            refs.append(b.const(_random_fraction(rng)))
        elif op == "add":
            refs.append(b.add(rng.choice(refs), rng.choice(refs)))
        else:
            refs.append(b.mulc(_random_fraction(rng), rng.choice(refs)))
    return b.build([rng.choice(refs) for _ in range(k)])


def verify_setup(seed: int) -> VerifyInputs:
    rng = random.Random(seed)
    items = []
    for k, max_gates, count in STRATA:
        dim = 2 * (max_gates + 2 * k)
        for _ in range(count):
            circuit = _random_circuit(rng, k, max_gates)
            lams = [[Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(k)]
                    for _ in range(LP_PROBES)]
            draws = []
            for _ in range(SEMIMONOTONE_TRIALS):
                z = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(dim)]
                if not any(z):
                    z[rng.randrange(dim)] = Fraction(1)
                q = [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(dim)]
                draws.append((z, q))
            items.append(VerifyItem(circuit, lams, draws))
    # interleave the strata, so that a stretch of slow machine time does not
    # fall on one stratum and move its percentile
    rng.shuffle(items)
    return VerifyInputs(items)


def _verify_one(nf, item: VerifyItem) -> VerifyItemOut:
    """The `verify --mode lemmas` battery, plus Lemke-Howson from every label."""
    prepared = nf.fixp.normalize_max_zero(nf.fixp.clamp_outputs(item.circuit))
    P = nf.lp.with_cost(nf.lp.build_constraints(prepared))
    ns = nf.lcp.normalize(P)
    game = nf.lcp.build_game(ns)
    sym = nf.lcp.build_symmetric_game(P)
    structure = nf.lp.property_violations(P)

    order = nf.fixp.order_max_gates(prepared)
    lp_matches = True
    for lam in item.lams:
        x = nf.lp.solve_lp(P, lam)
        _, trace = nf.fixp.evaluate_with_trace(prepared, lam)
        lp_matches = lp_matches and [trace[g] for g in order] == x
    witnessed = sum(bool(nf.lcp.semimonotone_witness(ns, z, q)) for z, q in item.draws)

    routes_ok = True
    res = nf.nash.enumerate_ne(game.A, game.B)
    lams = set()
    for cert in res.equilibria:
        x, y = nf.lcp.ne_to_lcp(ns, cert.x, cert.y)
        routes_ok = routes_ok and nf.lcp.lcp_to_ne(x, y) == (cert.x, cert.y)
        lam = nf.lcp.game_to_fixed_point(cert.x, game.meta)
        routes_ok = routes_ok and nf.nash.check_fixed_point(prepared, lam)
        lams.add(tuple(lam))
    sres = nf.nash.enumerate_symmetric_ne(sym.S)
    sym_lams = set()
    for cert in sres.equilibria:
        x = nf.lcp.symne_to_lcp(P, cert.z)
        routes_ok = routes_ok and nf.lcp.lcp_to_symne(x) == cert.z
        lam = nf.lcp.game_to_fixed_point(cert.z, sym.meta)
        routes_ok = routes_ok and nf.nash.check_fixed_point(prepared, lam)
        sym_lams.add(tuple(lam))
    imi = nf.lcp.imitation_game(sym)
    ires = nf.nash.enumerate_ne(imi.A, imi.B)

    lh = [nf.nash.lemke_howson(game.A, game.B, label) for label in range(2 * len(game.A))]
    return VerifyItemOut(prepared, P, game, sym, structure, lp_matches, witnessed,
                         res, sres, ires, routes_ok, lams, sym_lams, lh)


def verify_pass(nf, inp: VerifyInputs) -> PassResult:
    outs, spans, errors = [], [], []
    for i, item in enumerate(inp.items):
        with nf.item(i):
            t0 = now()
            try:
                outs.append(_verify_one(nf, item))
            except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
                outs.append(None)
                errors.append(f"verify_small: circuit {i} raised {type(exc).__name__}: {exc}")
            spans.append((t0, now()))
    return PassResult(outs, spans, errors)


def verify_referee(nf, inp: VerifyInputs, outs: list, checks: Checks):
    for i, out in enumerate(outs):
        if out is None:
            continue    # already counted as a raising call
        tag = f"verify_small: circuit {i}"
        checks.add(f"{tag}: LP structure P1-P3 holds", not out.structure)
        checks.add(f"{tag}: solve_lp equals the max-gate trace", out.lp_matches)
        checks.add(f"{tag}: every semimonotone draw witnessed",
                   out.witnessed == len(inp.items[i].draws))
        checks.add(f"{tag}: equilibria found on both routes",
                   bool(out.res.equilibria) and bool(out.sres.equilibria))
        checks.add(f"{tag}: round trips land on fixed points", out.routes_ok)
        # as `verify --mode lemmas` does: the fixed points of the two routes
        # are compared only where neither enumeration is degenerate, the
        # imitation game always
        if not (out.res.degenerate or out.sres.degenerate):
            checks.add(f"{tag}: both routes give the same fixed points",
                       out.lams == out.sym_lams)
        checks.add(f"{tag}: imitation second strategies are the symmetric equilibria",
                   {tuple(c.y) for c in out.ires.equilibria}
                   == {tuple(c.z) for c in out.sres.equilibria})
        for label, cert in enumerate(out.lh):
            checks.add(f"{tag}: LH label {label} verifies", _lh_verifies(nf, out, cert),
                       tally="nash.lemke_howson")


def _lh_verifies(nf, out: VerifyItemOut, cert) -> bool:
    if not nf.nash.check_ne(out.game.A, out.game.B, cert.x, cert.y) or cert.x[-1] <= 0:
        return False
    lam = _fixed_point_of(cert.x, out.game.meta.output_rows)
    return nf.fixp.evaluate(out.prepared, lam) == lam


def verify_counters(outs: list) -> dict:
    rows = []
    for out in outs:
        if out is None:
            continue
        enumerations = (out.res, out.sres, out.ires)
        rows.append({**_lp_counters(out.P, out.prepared),
                     "lcp.game_dim": len(out.game.A),
                     "lcp.payoff_bits": _payoff_bits(out.game.A, out.game.B, out.sym.S),
                     "nash.equilibria": sum(len(r.equilibria) for r in enumerations)
                                        + len(out.lh),
                     "nash.degenerate": sum(r.degenerate for r in enumerations),
                     "nash.enumerations": len(enumerations)})
    return _sum_counters(rows, maxed=("lp.cost_bits", "lcp.payoff_bits"))


def verify_artifacts(outs: list) -> dict[str, str]:
    texts = {}
    for i, out in enumerate(outs):
        if out is not None:
            texts[f"game-{i}"] = artifact_text(out.game)
            texts[f"symmetric-{i}"] = artifact_text(out.sym)
    return texts


@dataclass(frozen=True)
class Workload:
    setup: object       # (seed, workdir) -> inputs
    run_pass: object    # (api, inputs) -> PassResult
    referee: object     # (api, inputs, out, checks) -> None
    counters: object    # out -> dict
    artifacts: object   # out -> {name: artifact text}


WORKLOADS = {
    "chain_1d": Workload(lambda seed, workdir: chain_setup(seed), chain_pass,
                         chain_referee, chain_counters, chain_artifacts),
    "reduce_2d": Workload(reduce_setup, reduce_pass,
                          reduce_referee, reduce_counters, reduce_artifacts),
    "verify_small": Workload(lambda seed, workdir: verify_setup(seed), verify_pass,
                             verify_referee, verify_counters, verify_artifacts),
}
