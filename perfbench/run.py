"""nashforge benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload chain_1d --seed 1 --seconds 30 --trace 0

Run from the repository root (the sources are read from src/).  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it print every metric
by name and unit, the failure ratio with its counts, and any failed check.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: set-up is
repeated and its median reported, then untraced passes over the
workload's fixed item set run while the next one fits in --seconds (at
least one).  Every reported time is CPU time scaled to a reference speed
of the machine, which is sampled under the work (see clock.py); the raw
CPU and wall times are printed beside it.  --trace 1 runs one traced pass
and then one untraced pass, reports the per-layer metrics of BENCHMARK.json and the tracing overhead,
and writes the spans to .perfbench/.

The referee checks the first pass's outputs, untimed; later passes must
repeat its counters and game-artifact digests, and the fixed instances
must match perfbench/baseline.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from clock import REF_S, WorkClock, now
from tracer import Api, Tracer, span_cost

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = (5, 200)     # at least, at most; before the passes and again after
SETUP_BUDGET_S = 0.3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nashforge
    from nashforge import brouwer, compiler, fixp, lcp, lp, nash  # noqa: F401
    if Path(nashforge.__file__).resolve().parent != src / "nashforge":
        raise ImportError(f"nashforge was imported from {nashforge.__file__}, not {src}")
    return nashforge


def _measure_setup(workload, seed: int, spans: list):
    """Set up repeatedly, adding the clock readings around each to
    `spans`; returns the inputs.

    Called before the passes and again after them, so that the median
    draws on two moments of the run."""
    inputs = None
    started = time.perf_counter()
    for done in range(1, SETUP_REPEATS[1] + 1):
        t0 = now()
        inputs = workload.setup(seed, OUT_DIR)
        spans.append((t0, now()))
        if done >= SETUP_REPEATS[0] and time.perf_counter() - started > SETUP_BUDGET_S:
            break
    return inputs


def _tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; with ten samples or fewer, the largest (p100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], (100 * (n - 10)) // n


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_pass(workload, api, inputs, checks):
    """One pass; returns its result (None if it raised), its wall seconds
    and the clock readings at its start and end."""
    t0, c0 = time.perf_counter(), now()
    try:
        result = workload.run_pass(api, inputs)
    except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
        checks.add(f"pass raised {type(exc).__name__}: {exc}", False)
        result = None
    span, wall = (c0, now()), time.perf_counter() - t0
    for message in result.errors if result else ():
        checks.add(message, False)
    return result, wall, span


def _fingerprint(workload, out) -> dict:
    """Counters, artifact digests and artifact bytes: all must repeat exactly."""
    texts = workload.artifacts(out)
    return {"counters": workload.counters(out),
            "sha256": {name: hashlib.sha256(text.encode()).hexdigest()
                       for name, text in sorted(texts.items())},
            "bytes": sum(len(text.encode()) for text in texts.values())}


def _check_baseline(name, fingerprint, baseline, checks):
    """A fixed instance must reproduce the recorded counters and digests."""
    expected = baseline.get(name)
    if expected is None:
        return
    for key, value in expected["counters"].items():
        got = fingerprint["counters"].get(key)
        checks.add(f"{name}: counter {key} = {got}, baseline {value}", got == value)
    for key, value in expected["sha256"].items():
        got = fingerprint["sha256"].get(key)
        checks.add(f"{name}: artifact {key} sha256 {got}, baseline {value}", got == value)


def _run(args, nashforge, spec, baseline) -> tuple[dict, list[str], object]:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    clock = WorkClock()
    if args.trace:
        # traced spans read the wall clock; samples would land inside them
        return _measure(args, nashforge, spec, baseline, workload, clock)
    clock.start()
    try:
        return _measure(args, nashforge, spec, baseline, workload, clock)
    finally:
        clock.stop()


def _measure(args, nashforge, spec, baseline, workload, clock):
    from workloads import Checks

    setup_spans: list[tuple[float, float]] = []
    inputs = _measure_setup(workload, args.seed, setup_spans)
    checks = Checks()
    if args.trace:
        tracer = Tracer()
        # the traced pass goes first, cold like the timed pass of --trace 0
        apis = [Api(nashforge, tracer), Api(nashforge)]
    else:
        apis = itertools.repeat(Api(nashforge))
    walls, pass_spans, item_spans, fingerprint = [], [], [], None
    for pass_api in apis:
        result, wall, span = _timed_pass(workload, pass_api, inputs, checks)
        walls.append(wall)
        pass_spans.append(span)
        if result is None:
            break
        item_spans.append(result.item_spans)
        if fingerprint is None:
            # set-up and one pass; the referee and the later passes would
            # add heap growth that varies from run to run
            peak_rss_mb = _peak_rss_mb()
            # the referee and the baseline see the first pass; later passes
            # must repeat it
            with pass_api.item("referee"):
                workload.referee(pass_api, inputs, result.out, checks)
            fingerprint = _fingerprint(workload, result.out)
            _check_baseline(args.workload, fingerprint, baseline, checks)
        else:
            checks.add(f"{args.workload}: pass {len(walls) - 1} repeats the counters and "
                       f"artifacts of pass 0", _fingerprint(workload, result.out) == fingerprint)
        # the next pass starts without this one's outputs in the heap
        del result
        if not args.trace and sum(walls) + statistics.median(walls) > args.seconds:
            break
    if fingerprint is None:
        peak_rss_mb = _peak_rss_mb()
    if not args.trace:
        _measure_setup(workload, args.seed, setup_spans)

    header = (f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"passes {len(walls)}")
    values: dict[str, float] = {}
    notes: list[str] = []
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        # a layer the workload never calls reads 0
        values.update(dict.fromkeys((m["name"] for m in spec["per_layer"]), 0))
        values.update(_per_layer(tracer, fingerprint, checks, walls))
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        passes = [clock.scaled(*span) for span in pass_spans]
        items = [[clock.scaled(*span) for span in spans] for spans in item_spans] or [passes[:1]]
        tails = [_tail(t) for t in items]
        values.update({
            "setup_s": statistics.median(clock.scaled(*span) for span in setup_spans),
            "pass_s": statistics.median(passes),
            "items_per_s": sum(map(len, items)) / sum(passes[:len(items)]),
            "item_p50_s": statistics.median(statistics.median(t) for t in items),
            "item_tail_s": statistics.median(v for v, _ in tails),
            "peak_rss_mb": peak_rss_mb,
            "artifact_bytes": fingerprint["bytes"] if fingerprint else 0,
        })
        cpu = statistics.median(t1 - t0 for t0, t1 in pass_spans)
        notes.append(f"setup_s is the median of {len(setup_spans)} set-ups; pass_s the median "
                     f"of {len(passes)} passes of {len(items[0])} item(s)")
        notes.append(f"item_tail_s is p{tails[0][1]} of {len(items[0])} items per pass")
        notes.append(f"per pass (median): {cpu:.6g} s CPU, {statistics.median(walls):.6g} s wall; "
                     f"kernel {clock.kernel_s(pass_spans[0][0], pass_spans[-1][1]) * 1e6:.4g} us "
                     f"against REF_S {REF_S * 1e6:.4g} us, sampling {clock.overhead():.2%} of CPU")
    notes.append(f"fail_ratio {checks.failed / checks.attempted:.6g} ratio  "
                 f"({checks.failed} failed / {checks.attempted} attempted)")
    if fingerprint:
        c = fingerprint["counters"]
        if "lp.nnz" in c:
            notes.append(f"lp.nnz {c['lp.nnz']} of m^2 = {c['lp.dense_entries']} entries")
        if args.workload in baseline:
            notes.extend(f"sha256 {name} {digest}"
                         for name, digest in fingerprint["sha256"].items())

    metrics, metric_lines = {}, []
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        metric_lines.append(f"{m['name']} {value:.6g} {m['unit']}")
    lines = [header, *metric_lines, *notes, *(f"FAILED {f}" for f in checks.failures[:20])]
    return metrics, lines, checks


def _per_layer(tracer, fingerprint, checks, walls) -> dict:
    values = {}
    for name, (seconds, calls) in tracer.self_times().items():
        values[f"{name}.s"] = seconds
        values[f"{name}.calls"] = calls
    counters = dict((fingerprint or {}).get("counters", {}))
    enumerations = counters.pop("nash.enumerations", 0)
    degenerate = counters.pop("nash.degenerate", 0)
    values.update(counters)
    values["nash.degenerate_ratio"] = degenerate / enumerations if enumerations else 0
    ok, total = checks.tallies.get("nash.lemke_howson", (0, 0))
    values["nash.lemke_howson.ok_ratio"] = ok / total if total else 0
    if len(walls) == 2:
        values["trace.traced_wall_s"], values["trace.untraced_wall_s"] = walls
        values["trace.overhead_s"] = walls[0] - walls[1]
    values["trace.spans"] = len(tracer.spans)
    values["trace.bookkeeping_s"] = len(tracer.spans) * span_cost()
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path, baseline_path = ROOT / "BENCHMARK.json", BENCH / "baseline.json"
    if not (ROOT / "src" / "nashforge" / "__init__.py").is_file():
        return _fail(f"no nashforge sources under {ROOT / 'src'}; run from a checkout")
    if not spec_path.is_file() or not baseline_path.is_file():
        return _fail("BENCHMARK.json or perfbench/baseline.json is missing")
    spec = json.loads(spec_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    try:
        nashforge = _import_package()
    except ImportError as exc:
        return _fail(f"cannot import nashforge: {exc}")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    metrics, lines, checks = _run(args, nashforge, spec, baseline)
    for line in lines:
        print(line)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
