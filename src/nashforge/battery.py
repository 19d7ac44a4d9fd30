"""The lemma battery that `verify` runs, as check records.

Each generator yields one `Check` per check, in a fixed order, and a
`LemmaFalsified` it raises follows the records it has already yielded.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import brouwer, compiler, lcp, lp, nash
from .exactmath import Vec, is_upper_triangular, rat_to_str, sparse_transpose
from .fixp import FixpCircuit, evaluate_with_trace, order_max_gates


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _rank_certificate(game: lcp.BimatrixGame) -> tuple[bool, bool]:
    """rank(A+B) <= k+1 by elimination, and A upper-triangular."""
    return (lcp.payoff_sum_rank(game.A_rows, game.B_rows) <= game.meta.k + 1,
            is_upper_triangular(game.A_rows))


def _lp_matches(P: lp.ParamLP, prepared: FixpCircuit, order: list[int], lam: Vec) -> bool:
    """The LP optimum at lam is the max-gate trace, with a KKT dual below beta."""
    x = lp.solve_lp(P, lam)
    _, trace = evaluate_with_trace(prepared, lam)
    if [trace[g] for g in order] != x:
        return False
    y = lp.construct_dual(P, x)
    return not (lp.kkt_violations(P, lam, x, y) or any(a > b for a, b in zip(y, P.beta)))


def circuit_lemmas(P: lp.ParamLP, prepared: FixpCircuit, lams: list[Vec],
                   draws: list[tuple[Vec, Vec]]) -> Iterator[Check]:
    """`verify --mode lemmas`, with its lambda probes and (z, q) draws given."""
    two_sided = lcp.normalize(P)
    game = lcp.build_game(two_sided)
    sym = lcp.build_symmetric_game(P)

    yield Check("structure_P1_P3", not lp.property_violations(P))
    order = order_max_gates(prepared)
    yield Check("lp_matches_circuit_and_kkt",
                all(_lp_matches(P, prepared, order, lam) for lam in lams))
    yield Check("rank_and_triangularity", all(_rank_certificate(game)))
    S = lcp.symmetrize(game.A_rows, game.B_rows, P.m + 1).S_rows
    yield Check("symmetrized_rank",
                lcp.payoff_sum_rank(S, sparse_transpose(S, len(S))) <= 2 * (P.k + 1))

    alarm = False
    violated = 0
    for z, q in draws:
        try:
            lcp.semimonotone_witness(two_sided, z, q)
            violated += 1
        except lcp.LemmaFalsified:
            alarm = True
            break
    yield Check("semimonotone_battery", not alarm, f"{violated}/{len(draws)} witnessed")
    if alarm:
        raise lcp.LemmaFalsified("semimonotone battery found a nonzero solution")

    # each route must find equilibria, map them to the LCP and back, and
    # carry fixed points of the circuit
    res = nash.enumerate_ne(game.A, game.B)
    lam_set = {tuple(lcp.game_to_fixed_point(c.x, game.meta)) for c in res.equilibria}
    yield Check("ne_to_lcp_roundtrip_and_fixed_points",
                bool(res.equilibria)
                and all(nash.check_fixed_point(prepared, lam) for lam in lam_set)
                and all(lcp.lcp_to_ne(*lcp.ne_to_lcp(two_sided, c.x, c.y)) == (c.x, c.y)
                        for c in res.equilibria),
                f"{len(res.equilibria)} equilibria" + (" [degenerate]" if res.degenerate else ""))

    dense_S = sym.S
    sres = nash.enumerate_symmetric_ne(dense_S)
    sym_lams = {tuple(lcp.game_to_fixed_point(c.z, sym.meta)) for c in sres.equilibria}
    yield Check("symmetric_path_fixed_points",
                bool(sres.equilibria)
                and all(nash.check_fixed_point(prepared, lam) for lam in sym_lams)
                and all(not nash.symmetric_ne_violations(dense_S, c.z)
                        and lcp.lcp_to_symne(lcp.symne_to_lcp(P, c.z)) == c.z
                        for c in sres.equilibria),
                f"{len(sres.equilibria)} symmetric equilibria")
    if not (res.degenerate or sres.degenerate):
        yield Check("paths_agree_on_lambda", lam_set == sym_lams)

    # the imitation game's A is S itself, so the dense S serves it too
    imi = lcp.imitation_game(sym)
    ires = nash.enumerate_ne(dense_S, imi.B)
    second = {tuple(c.y) for c in ires.equilibria}
    sym_set = {tuple(c.z) for c in sres.equilibria}
    yield Check("imitation_second_strategies", second == sym_set)


def roundtrip(P: lp.ParamLP, prepared: FixpCircuit) -> Iterator[Check]:
    """`verify --mode roundtrip`: each equilibrium to the LCP and a fixed point."""
    two_sided = lcp.normalize(P)
    game = lcp.build_game(two_sided)
    res = nash.enumerate_ne(game.A, game.B)
    yield Check("equilibria_found", bool(res.equilibria), f"{len(res.equilibria)} found")
    for idx, cert in enumerate(res.equilibria):
        yield Check(f"ne_{idx}_slack_positive", cert.x[-1] > 0 and cert.y[-1] > 0)
        try:
            lcp.ne_to_lcp(two_sided, cert.x, cert.y)     # checks the LCP conditions
        except lcp.LemmaFalsified as exc:
            yield Check(f"ne_{idx}_lcp_conditions", False, str(exc))
            raise
        yield Check(f"ne_{idx}_lcp_conditions", True)
        lam = lcp.game_to_fixed_point(cert.x, game.meta)
        yield Check(f"ne_{idx}_fixed_point", nash.check_fixed_point(prepared, lam),
                    "lambda = " + ", ".join(rat_to_str(v) for v in lam))


def game_checks(game: lcp.BimatrixGame) -> Iterator[Check]:
    """`verify` on a game: the structure its kind names, then its equilibria."""
    # refuse a game past the enumeration cap before the rank checks pass it
    n = len(game.A_rows)
    nash.check_dimension(n, n)
    if game.meta.kind == "rank_k_plus_1":
        rank_ok, triangular = _rank_certificate(game)
        yield Check("rank_bound", rank_ok)
        yield Check("upper_triangular", triangular)
    elif game.meta.kind == "symmetric":
        yield Check("symmetric_structure", game.B_rows == sparse_transpose(game.A_rows, n),
                    "B = A^T")
    else:
        yield Check("imitation_structure", game.B_rows == [{i: 1} for i in range(n)], "B = I")
    A, B = game.A, game.B
    res = nash.enumerate_ne(A, B)
    yield Check("equilibria_found", bool(res.equilibria), f"{len(res.equilibria)} found")
    for idx, cert in enumerate(res.equilibria):
        yield Check(f"ne_{idx}_checker", not nash.ne_violations(A, B, cert.x, cert.y))
        if game.meta.kind == "rank_k_plus_1" and game.meta.output_rows:
            yield Check(f"ne_{idx}_slack_positive", cert.x[-1] > 0 and cert.y[-1] > 0)


def approx_points(cf: compiler.CompiledFunction, points: Iterable[tuple[str, Vec]],
                  eps) -> Iterator[Check]:
    """`verify --mode approx`: each (text, point) near its image, and its simplex."""
    fixtures = None
    for text, p in points:
        # extraction runs the fixed-point test first, so one evaluation of
        # the circuit serves both records
        try:
            simplex = compiler.extract_panchromatic_simplex(p, cf, eps)
        except compiler.NotPanchromatic as exc:
            is_fp = not isinstance(exc, compiler.NotApproxFixedPoint)
            yield Check(f"approx_fixed_point[{text}]", is_fp, f"eps={rat_to_str(eps)}")
            if is_fp:
                yield Check(f"simplex[{text}]", False, str(exc))
            continue
        yield Check(f"approx_fixed_point[{text}]", True, f"eps={rat_to_str(eps)}")
        if fixtures is None:
            fixtures = brouwer.brute_force_fixtures(cf.source)
        base = tuple(min(q[i] for q in simplex) for i in range(cf.grid.k))
        known = {f.base for f in fixtures}
        yield Check(f"simplex[{text}]", base in known,
                    "cells " + " ".join(str(q) for q in simplex))
