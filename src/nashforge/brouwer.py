"""Discrete Brouwer instances on k-dimensional grids.

A grid point gets one of k+1 colors from a Boolean mapping circuit with
k*n input bits (each coordinate most-significant bit first, coordinate 1
before coordinate 2) and 2k output bits, paired as (up_1, down_1, ...,
up_k, down_k).  A legal output pattern is either

* color 0: every down bit set, every up bit clear, or
* color i: up_i set and all other 2k-1 bits clear,

and the color moves the point by an incremental vector: color 0 subtracts
one from every coordinate, color i adds one to coordinate i.  Validity
additionally pins the boundary: a point with some zero coordinate gets the
largest index of a zero coordinate, every other boundary point gets color
0.  Valid colorings always admit a unit cube whose vertices carry all k+1
colors; finding one is the computational problem, and the exhaustive
scanner here is the desk-scale oracle for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exactmath import Ref, check_dag, gate_from_json, gate_to_json, int_from_json, walk

EXHAUSTIVE_BIT_LIMIT = 24


class IllegalPattern(Exception):
    """Output bits of the mapping circuit match no legal color case."""


class GridTooLarge(Exception):
    """Exhaustive operation requested beyond the configured bit limit."""


class InvalidBrouwerCircuit(Exception):
    """Circuit violates a validity condition (pattern, boundary or range)."""


@dataclass(frozen=True, slots=True)
class Grid:
    k: int
    n: int

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("grid needs k >= 1 and n >= 1")

    @property
    def side(self) -> int:
        return 2 ** self.n

    def contains(self, p) -> bool:
        return len(p) == self.k and all(0 <= x < self.side for x in p)

    def on_boundary(self, p) -> bool:
        return any(x == 0 or x == self.side - 1 for x in p)

    def points(self):
        return itertools.product(range(self.side), repeat=self.k)

    def check_exhaustive(self):
        if self.k * self.n > EXHAUSTIVE_BIT_LIMIT:
            raise GridTooLarge(f"grid has {self.k * self.n} input bits; "
                               f"exhaustive limit is {EXHAUSTIVE_BIT_LIMIT}")


# --- Boolean circuits ---

@dataclass(frozen=True, slots=True)
class BInput:
    index: int


@dataclass(frozen=True, slots=True)
class BConst:
    value: int


@dataclass(frozen=True, slots=True)
class BAnd:
    a: Ref
    b: Ref


@dataclass(frozen=True, slots=True)
class BOr:
    a: Ref
    b: Ref


@dataclass(frozen=True, slots=True)
class BNot:
    a: Ref


BGate = BInput | BConst | BAnd | BOr | BNot

# wire op name and JSON keys of every gate, keys in field order
BGATES = {
    BInput: ("input", ("i",)),
    BConst: ("const", ("v",)),
    BAnd: ("and", ("a", "b")),
    BOr: ("or", ("a", "b")),
    BNot: ("not", ("a",)),
}


@dataclass(frozen=True)
class BoolCircuit:
    """Mapping circuit: k*n input bits, ordered gates, 2k output refs."""

    k: int
    n: int
    gates: tuple[BGate, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        Grid(self.k, self.n)    # rejects k < 1 and n < 1
        check_dag(self.gates, self.outputs)
        for i, g in enumerate(self.gates):
            if isinstance(g, BInput) and not 0 <= g.index < self.k * self.n:
                raise ValueError(f"input gate {i} index out of range")
            if isinstance(g, BConst) and g.value not in (0, 1):
                raise ValueError(f"const gate {i} must be 0 or 1")
        if len(self.outputs) != 2 * self.k:
            raise ValueError(f"expected {2 * self.k} outputs, got {len(self.outputs)}")

    @property
    def grid(self) -> Grid:
        return Grid(self.k, self.n)


def bool_circuit_size(cb: BoolCircuit) -> int:
    """#inputs + #outputs + #gates, the instance size measure."""
    return cb.k * cb.n + 2 * cb.k + len(cb.gates)


def encode_point(grid: Grid, p) -> list[int]:
    """Bits of p, each coordinate most-significant first, coord 1 first."""
    if not grid.contains(p):
        raise ValueError(f"point {p} outside grid")
    bits = []
    for x in p:
        bits.extend((x >> (grid.n - 1 - j)) & 1 for j in range(grid.n))
    return bits


def eval_bool(cb: BoolCircuit, p) -> list[int]:
    """Evaluate the circuit at a grid point; returns the 2k output bits."""
    bits = encode_point(cb.grid, p)
    values = walk(cb.gates, {
        BInput: lambda g, v: bits[g.index],
        BConst: lambda g, v: g.value,
        BAnd: lambda g, v: v[g.a] & v[g.b],
        BOr: lambda g, v: v[g.a] | v[g.b],
        BNot: lambda g, v: 1 - v[g.a],
    })
    return [values[o] for o in cb.outputs]


def decode_case(bits) -> int:
    """Map the 2k output bits to a color; raises IllegalPattern otherwise."""
    if len(bits) % 2 != 0:
        raise ValueError("output bit count must be even")
    k = len(bits) // 2
    ups = bits[0::2]
    downs = bits[1::2]
    if all(d == 1 for d in downs) and all(u == 0 for u in ups):
        return 0
    for i in range(k):
        if ups[i] == 1 and all(d == 0 for d in downs) \
                and all(u == 0 for j, u in enumerate(ups) if j != i):
            return i + 1
    raise IllegalPattern(f"bits {tuple(bits)} match no color case")


def increment(color: int, k: int) -> tuple[int, ...]:
    """Incremental vector of a color: all -1 for color 0, unit e_i else."""
    if not 0 <= color <= k:
        raise ValueError(f"color {color} outside 0..{k}")
    if color == 0:
        return (-1,) * k
    return tuple(1 if i == color - 1 else 0 for i in range(k))


def color_at(cb: BoolCircuit, p) -> int:
    return decode_case(eval_bool(cb, p))


def boundary_color(grid: Grid, p) -> int | None:
    """Color a valid circuit must produce at p, or None off the boundary."""
    if not grid.on_boundary(p):
        return None
    zeros = [i + 1 for i, x in enumerate(p) if x == 0]
    return max(zeros) if zeros else 0


def discrete_map(cb: BoolCircuit, p) -> tuple[int, ...]:
    """One step of the discrete dynamics: p plus its color's increment."""
    c = color_at(cb, p)
    q = tuple(x + d for x, d in zip(p, increment(c, cb.k)))
    if not cb.grid.contains(q):
        raise InvalidBrouwerCircuit(f"image {q} of {tuple(p)} leaves the grid")
    return q


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[tuple[tuple[int, ...], str], ...]


def validate_circuit(cb: BoolCircuit) -> ValidityReport:
    """Exhaustively check legality and boundary rules at every grid point."""
    grid = cb.grid
    grid.check_exhaustive()
    violations = []
    for p in grid.points():
        try:
            c = decode_case(eval_bool(cb, p))
        except IllegalPattern as exc:
            violations.append((p, str(exc)))
            continue
        expected = boundary_color(grid, p)
        if expected is not None and c != expected:
            violations.append((p, f"boundary rule requires color {expected}, got {c}"))
            continue
        q = tuple(x + d for x, d in zip(p, increment(c, grid.k)))
        if not grid.contains(q):
            violations.append((p, f"image {q} leaves the grid"))
    return ValidityReport(not violations, tuple(violations))


def require_valid(cb: BoolCircuit):
    """Raise InvalidBrouwerCircuit naming the first violation of validate_circuit."""
    report = validate_circuit(cb)
    if not report.ok:
        p, reason = report.violations[0]
        raise InvalidBrouwerCircuit(f"invalid at {p}: {reason}")


# --- exhaustive fixed-point oracle ---

@dataclass(frozen=True)
class PanchromaticCube:
    base: tuple[int, ...]
    colors: tuple[int, ...]                 # color of each cube vertex
    simplices: tuple[tuple[tuple[int, ...], ...], ...]


def panchromatic_cubes(color_fn, grid: Grid) -> list[PanchromaticCube]:
    """All unit cubes whose vertices carry all k+1 colors, with every
    panchromatic simplex (one vertex per color) inside each."""
    grid.check_exhaustive()
    k = grid.k
    found = []
    offsets = list(itertools.product((0, 1), repeat=k))
    for base in itertools.product(range(grid.side - 1), repeat=k):
        verts = [tuple(b + o for b, o in zip(base, off)) for off in offsets]
        colors = [color_fn(v) for v in verts]
        if len(set(colors)) == k + 1:
            by_color = {c: [v for v, cv in zip(verts, colors) if cv == c]
                        for c in range(k + 1)}
            simplices = tuple(
                tuple(choice)
                for choice in itertools.product(*(by_color[c] for c in range(k + 1)))
            )
            found.append(PanchromaticCube(base, tuple(colors), simplices))
    return found


def brute_force_fixtures(cb: BoolCircuit) -> list[PanchromaticCube]:
    """Panchromatic cubes of a circuit's coloring; validates the circuit first."""
    require_valid(cb)
    return panchromatic_cubes(lambda p: color_at(cb, p), cb.grid)


# --- fixture generator ---

def make_example_coloring(grid: Grid) -> BoolCircuit:
    """Deterministic valid circuit coloring every point by the boundary
    rule's formula, everywhere: color = max{i : p_i = 0}, else 0.

    The unit cube at the origin is then panchromatic: its all-ones vertex
    has color 0 and, for each i, the vertex with a zero only in
    coordinate i has color i.
    """
    k, n = grid.k, grid.n
    gates: list[BGate] = [BInput(t) for t in range(k * n)]

    def emit(g: BGate) -> int:
        gates.append(g)
        return len(gates) - 1

    def and_chain(refs: list[int]) -> int:
        acc = refs[0]
        for r in refs[1:]:
            acc = emit(BAnd(acc, r))
        return acc

    # z_i <=> coordinate i is zero (all of its bits clear)
    zero_flags = []
    for i in range(k):
        nots = [emit(BNot(i * n + j)) for j in range(n)]
        zero_flags.append(and_chain(nots))
    not_zero = [emit(BNot(z)) for z in zero_flags]

    # color i <=> z_i and no later coordinate is zero; color 0 <=> no zeros
    case = {}
    for i in range(k, 0, -1):
        case[i] = and_chain([zero_flags[i - 1]] + not_zero[i:])
    case[0] = and_chain(not_zero)

    outputs = []
    for i in range(1, k + 1):
        outputs.extend((case[i], case[0]))
    return BoolCircuit(k, n, tuple(gates), tuple(outputs))


# --- JSON wire format ---

def bool_to_json(cb: BoolCircuit) -> dict:
    return {"k": cb.k, "n": cb.n, "gates": [gate_to_json(g, BGATES) for g in cb.gates],
            "outputs": list(cb.outputs)}


def bool_from_json(doc: dict) -> BoolCircuit:
    return BoolCircuit(int_from_json(doc["k"]), int_from_json(doc["n"]),
                       tuple(gate_from_json(g, BGATES) for g in doc["gates"]),
                       tuple(int_from_json(o) for o in doc["outputs"]))
