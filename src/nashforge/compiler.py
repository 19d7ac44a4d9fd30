"""Compile a Brouwer mapping circuit into a piecewise-linear circuit.

The compiled function F: [0, 2^n-1]^k -> [0, 2^n-1]^k extends the discrete
coloring dynamics to real points.  Per input point it

1. forms sample points p^j = p + (j-1)/L * (1,...,1),
2. extracts the binary digits of each sample coordinate's integer part
   with the bit gadget (exact on well-positioned coordinates),
3. feeds the bits through an arithmetic simulation of the Boolean circuit
   (and -> min, or -> max, not -> 1-x),
4. clamps each resulting increment coordinate to [-1, 1],
5. averages the sampled increments, and
6. clamps the moved point back into the box.

Bit extraction fails only on poorly positioned coordinates, those with
fractional part inside (1 - 1/L^2, 1); the sampling spread guarantees at
most one such sample per coordinate, so at most k in total, and the
counting argument then forces every (near-)fixed point of F into a
panchromatic unit cube.  The extractor at the end of this module turns a
certified approximate fixed point into the panchromatic simplex of grid
points it witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice

from . import brouwer
from .brouwer import BoolCircuit, Grid, bool_circuit_size
from .exactmath import Vec, exact_vec, flag_from_json, int_from_json, walk
from .fixp import Builder, FixpCircuit, Input, circuit_size, evaluate, evaluate_points


class NotPanchromatic(Exception):
    """Candidate point did not certify a panchromatic simplex."""


class NotApproxFixedPoint(NotPanchromatic):
    """Candidate point failed the approximate fixed-point test."""


@dataclass(frozen=True, slots=True)
class SamplingParams:
    """Sampling grid density L (a power of two) and samples per point."""

    L: int
    sample_count: int

    def __post_init__(self):
        if self.L & (self.L - 1) != 0 or self.L <= 0:
            raise ValueError("L must be a power of two")
        if self.L <= 16:
            raise ValueError("L must exceed 16")
        if self.sample_count < 16:
            raise ValueError("sample count must be at least 16")
        if self.L <= self.sample_count:
            raise ValueError("L must exceed the sample count")


def sample_count_for(k: int) -> int:
    """The number of samples per point in dimension k, max(16, k^4)."""
    return max(16, k ** 4)


def default_params(cb: BoolCircuit) -> SamplingParams:
    """`sample_count_for(k)` samples at the least power of two above them."""
    count = sample_count_for(cb.k)
    L = 1 << count.bit_length()
    if L > bool_circuit_size(cb) ** 2 * 64:
        raise ValueError("sampling density exceeds the polynomial budget for this circuit")
    return SamplingParams(L, count)


@dataclass(frozen=True)
class CompiledFunction:
    circuit: FixpCircuit
    source: BoolCircuit
    grid: Grid
    params: SamplingParams
    shrunk: bool = False


# --- gadget emission ----------------------------------------------------

def _emit_extract_bits(b: Builder, x_ref: int, n: int, L: int) -> list[int]:
    """Digits of the integer part of x, most-significant first.

    Per digit position i (from n-1 down to 0):
        bit <- min{ max{ (x - 2^i) * L^2 + 1, 0 }, 1 }
        x   <- x - 2^i * bit
    On a well-positioned input in [0, 2^n) the bits are the exact binary
    expansion of floor(x); on any input every bit stays in [0, 1].
    """
    L2 = L * L
    bits = []
    x = x_ref
    for i in range(n - 1, -1, -1):
        shifted = b.add(x, b.const(-(2 ** i)))
        scaled = b.add(b.mulc(L2, shifted), b.const(1))
        clipped_low = b.maxg(scaled, b.const(0))
        bit = b.ming(clipped_low, b.const(1))
        bits.append(bit)
        x = b.add(x, b.mulc(-(2 ** i), bit))
    return bits


def _emit_bool_sim(b: Builder, cb: BoolCircuit, input_refs: list[int]) -> list[int]:
    """Arithmetic simulation of the Boolean circuit on [0,1]-valued wires."""
    values = walk(cb.gates, {
        brouwer.BInput: lambda g, v: input_refs[g.index],
        brouwer.BConst: lambda g, v: b.const(g.value),
        brouwer.BAnd: lambda g, v: b.ming(v[g.a], v[g.b]),
        brouwer.BOr: lambda g, v: b.maxg(v[g.a], v[g.b]),
        brouwer.BNot: lambda g, v: b.one_minus(v[g.a]),
    })
    return [values[o] for o in cb.outputs]


def compile_brouwer(cb: BoolCircuit, params: SamplingParams | None = None,
                    validate: bool = True) -> CompiledFunction:
    """Build the sampled piecewise-linear extension of the discrete map."""
    grid = cb.grid
    if validate:
        brouwer.require_valid(cb)
    params = params or default_params(cb)
    k, n, L = grid.k, grid.n, params.L

    b = Builder(k)
    point = [b.input(i) for i in range(k)]
    increments: list[list[int]] = [[] for _ in range(k)]
    for j in range(params.sample_count):
        if j == 0:
            sample = point
        else:
            off = b.const(Fraction(j, L))
            sample = [b.add(p, off) for p in point]
        bits: list[int] = []
        for coord in sample:
            bits.extend(_emit_extract_bits(b, coord, n, L))
        delta = _emit_bool_sim(b, cb, bits)
        for i in range(k):
            diff = b.sub(delta[2 * i], delta[2 * i + 1])
            low = b.maxg(diff, b.const(-1))
            increments[i].append(b.ming(low, b.const(1)))

    outputs = []
    top = b.const(grid.side - 1)
    zero = b.const(0)
    for i in range(k):
        avg = b.mulc(Fraction(1, params.sample_count), b.sum_chain(increments[i]))
        moved = b.add(point[i], avg)
        outputs.append(b.maxg(b.ming(moved, top), zero))
    circuit = b.build(outputs)

    budget = _size_budget(cb, grid, params)
    if circuit_size(circuit) > budget:
        raise RuntimeError(
            f"compiled circuit size {circuit_size(circuit)} exceeds budget {budget}")
    return CompiledFunction(circuit, cb, grid, params)


def _size_budget(cb: BoolCircuit, grid: Grid, params: SamplingParams) -> int:
    # Linear in sample_count * size[C^b] plus sample_count * k * n * log L:
    # the simulation costs at most 4 gates and 6 coefficient bits per source
    # gate, a bit extraction 10 gates and one L^2-sized coefficient, and the
    # per-sample increment plumbing is constant per coordinate.
    bits_l2 = 2 * params.L.bit_length() + 4
    per_sample = 10 * bool_circuit_size(cb) + 16 * grid.k * grid.n * bits_l2
    return params.sample_count * per_sample + 60 * grid.k + 2 * params.sample_count + 64


def shrink_range(cf: CompiledFunction) -> CompiledFunction:
    """Rescale domain and range from [0, 2^n-1]^k to [0, 1]^k.

    A point is fixed for the shrunk function iff its (2^n-1)-multiple is
    fixed for the original.
    """
    if cf.shrunk:
        raise ValueError("function range is already shrunk")
    scale = cf.grid.side - 1
    b = Builder(cf.circuit.k)
    inputs = [b.input(i) for i in range(cf.circuit.k)]
    scaled_in = [b.mulc(scale, r) for r in inputs]
    values = b.copy(cf.circuit.gates, {Input: lambda g, v: scaled_in[g.index]})
    outs = [b.mulc(Fraction(1, scale), values[o]) for o in cf.circuit.outputs]
    return replace(cf, circuit=b.build(outs), shrunk=True)


# --- position analysis and simplex extraction ---------------------------

def well_positioned(p: Vec, L: int) -> bool:
    """No coordinate is poor: t + eps with t integral and 1 - 1/L^2 < eps < 1."""
    p = exact_vec(p)
    if any(x < 0 for x in p):
        raise ValueError("coordinates must be nonnegative")
    window = 1 - Fraction(1, L * L)
    return all(x - x.numerator // x.denominator <= window for x in p)


def sample_set(p: Vec, params: SamplingParams) -> list[list[Fraction]]:
    """The sampled points p + (j-1)/L along the all-ones diagonal."""
    p = exact_vec(p)
    return [[x + Fraction(j, params.L) for x in p] for j in range(params.sample_count)]


def floor_point(p: Vec, grid: Grid) -> tuple[int, ...]:
    """Componentwise largest grid integer below each coordinate."""
    return tuple(min(max(x.numerator // x.denominator, 0), grid.side - 1)
                 for x in exact_vec(p))


def check_approx_fixed_point(cf: CompiledFunction, p: Vec, eps) -> bool:
    """Exact test of ||p - F(p)||_inf <= eps, p's entries and eps each an
    int or a Fraction (see `exactmath.exact_vec`)."""
    if type(eps) is not int and not isinstance(eps, Fraction):
        raise TypeError(f"eps is {eps!r} ({type(eps).__name__}); expected an int or a Fraction")
    p = exact_vec(p)
    return max((abs(a - b) for a, b in zip(p, evaluate(cf.circuit, p), strict=True)),
               default=0) <= eps


def panchromatic_from_samples(samples, well_flags, color_fn, grid: Grid) -> tuple[tuple[int, ...], ...]:
    """Grid points under the well-positioned samples, verified to form a
    panchromatic simplex (accommodated, k+1 points, k+1 colors)."""
    k = grid.k
    poor = sum(1 for w in well_flags if not w)
    if poor > k:
        raise NotPanchromatic(
            f"{poor} poorly positioned samples; the sampling spread bounds this by {k}")
    cells = sorted({floor_point(s, grid) for s, w in zip(samples, well_flags) if w})
    if len(cells) != k + 1:
        raise NotPanchromatic(f"well samples cover {len(cells)} cells, need {k + 1}")
    lows = [min(c[i] for c in cells) for i in range(k)]
    if any(c[i] - lows[i] not in (0, 1) for c in cells for i in range(k)):
        raise NotPanchromatic("sample cells are not accommodated by one unit cube")
    colors = [color_fn(c) for c in cells]
    if sorted(colors) != list(range(k + 1)):
        raise NotPanchromatic(f"cell colors {sorted(colors)} miss some of 0..{k}")
    return tuple(cells)


def extract_panchromatic_simplex(p: Vec, cf: CompiledFunction,
                                 eps=None) -> tuple[tuple[int, ...], ...]:
    """Panchromatic simplex witnessed by an approximate fixed point.

    The candidate must pass the approximate fixed-point test (default
    tolerance 1/L); the returned set is verified against the source
    coloring before being handed back.
    """
    if cf.shrunk:
        raise ValueError("extract from the unshrunk function")
    eps = eps if eps is not None else Fraction(1, cf.params.L)
    if not check_approx_fixed_point(cf, p, eps):
        raise NotApproxFixedPoint(f"point is not a {eps}-approximate fixed point")
    samples = sample_set(p, cf.params)
    flags = [well_positioned(s, cf.params.L) for s in samples]
    return panchromatic_from_samples(
        samples, flags, lambda q: brouwer.color_at(cf.source, q), cf.grid)


# --- exhaustive grid-restriction check -----------------------------------

# grid points per batched evaluation: the batch keeps gates x GRID_CHUNK
# integers alive, however large the grid
GRID_CHUNK = 64


def grid_restriction_violations(cf: CompiledFunction) -> list:
    """Points where F disagrees with the discrete map (empty when correct).

    On an integer grid point every sample is well positioned and shares
    the same integer part, so the compiled function must reproduce the
    discrete dynamics exactly.
    """
    if cf.shrunk:
        raise ValueError("grid restriction applies to the unshrunk function")
    cf.grid.check_exhaustive()
    bad = []
    points = cf.grid.points()
    while chunk := list(islice(points, GRID_CHUNK)):
        for p, got in zip(chunk, evaluate_points(cf.circuit, chunk)):
            expected = brouwer.discrete_map(cf.source, p)
            if got != [Fraction(x) for x in expected]:
                bad.append((p, expected, got))
    return bad


def compiled_meta_json(cf: CompiledFunction) -> dict:
    return {
        "source_grid": {"k": cf.grid.k, "n": cf.grid.n},
        "L": cf.params.L,
        "sample_count": cf.params.sample_count,
        "shrunk": cf.shrunk,
    }


def compiled_meta_from_json(doc: dict) -> tuple[Grid, SamplingParams, bool]:
    grid = doc["source_grid"]
    return (Grid(int_from_json(grid["k"]), int_from_json(grid["n"])),
            SamplingParams(int_from_json(doc["L"]), int_from_json(doc["sample_count"])),
            flag_from_json(doc["shrunk"]))
