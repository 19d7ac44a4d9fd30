"""Piecewise-linear circuits over {max, +, multiply-by-rational-constant}.

A circuit is an ordered gate list forming a DAG: every gate may reference
only strictly earlier gates, so a plain index is a safe reference and the
list order is already topological.  Circuits have k real inputs and k
designated outputs; functions built from this basis are continuous and
piecewise linear, and evaluation over Fractions is exact.

Two rewrites prepare a circuit for the LP reduction:

* ``clamp_outputs`` composes every output t with max{0, -1*max{-1, -1*t}},
  i.e. max{0, min{1, t}}, so the function maps all of R^k into [0,1]^k and
  its fixed points agree with the unit-box restriction.
* ``normalize_max_zero`` rewrites max{a, b} as max{0, b-a} + a until every
  max gate has a literal zero operand.

Both preserve evaluation semantics exactly; the clamp bookkeeping
(``clamp_pairs``) survives normalization so later stages can locate the
inner/outer clamp gates of each output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactmath import (
    Ref, Vec, check_dag, exact_vec, flag_from_json, gate_from_json, gate_to_json, int_from_json,
    int_vec, walk,
)


@dataclass(frozen=True, slots=True)
class Input:
    index: int


@dataclass(frozen=True, slots=True)
class Const:
    value: Fraction


@dataclass(frozen=True, slots=True)
class Add:
    a: Ref
    b: Ref


@dataclass(frozen=True, slots=True)
class MulC:
    coeff: Fraction
    a: Ref


@dataclass(frozen=True, slots=True)
class Max:
    a: Ref
    b: Ref


Gate = Input | Const | Add | MulC | Max
# the literal zero operand of a normalized max gate
ZERO = Const(Fraction(0))

# wire op name and JSON keys of every gate, keys in field order
GATES = {
    Input: ("input", ("i",)),
    Const: ("const", ("v",)),
    Add: ("add", ("a", "b")),
    MulC: ("mulc", ("c", "a")),
    Max: ("max", ("a", "b")),
}


@dataclass(frozen=True)
class FixpCircuit:
    """Circuit with k real inputs; immutable after construction.

    Fixed-point circuits designate k outputs, but gadget fragments (bit
    extraction, Boolean simulation) may expose a different number; the
    output-arity requirement is enforced where fixed-point semantics
    start, in clamp_outputs.
    """

    k: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]
    normalized: bool = False
    clamped: bool = False
    clamp_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("circuit needs at least one input")
        check_dag(self.gates, self.outputs)
        for i, g in enumerate(self.gates):
            if isinstance(g, Input) and not 0 <= g.index < self.k:
                raise ValueError(f"input gate {i} has index {g.index} outside 0..{self.k - 1}")
        if not self.outputs:
            raise ValueError("circuit needs at least one output")
        if self.clamped:
            if len(self.outputs) != self.k:
                raise ValueError("clamped circuit must have k outputs")
            if len(self.clamp_pairs) != self.k:
                raise ValueError("clamped circuit must record one clamp pair per output")
            for l, (inner, outer) in enumerate(self.clamp_pairs):
                if self.outputs[l] != outer:
                    raise ValueError("clamped outputs must be the outer clamp gates")
                if not (isinstance(self.gates[inner], Max) and isinstance(self.gates[outer], Max)):
                    raise ValueError("clamp pair refs must be max gates")


def evaluate_with_trace(c: FixpCircuit, point: Vec) -> tuple[Vec, Vec]:
    """Evaluate gate by gate; returns (outputs, value of every gate)."""
    if len(point) != c.k:
        raise ValueError(f"expected {c.k} inputs, got {len(point)}")
    point = exact_vec(point)
    values = walk(c.gates, {
        Input: lambda g, v: point[g.index],
        Const: lambda g, v: g.value,
        Add: lambda g, v: v[g.a] + v[g.b],
        MulC: lambda g, v: g.coeff * v[g.a],
        Max: lambda g, v: v[g.a] if v[g.a] >= v[g.b] else v[g.b],
    })
    return [values[o] for o in c.outputs], values


def _aligned(va, vb):
    """Two (denominator, numerators) values over their common denominator."""
    (da, a), (db, b) = va, vb
    if da == db:
        return da, a, b
    d = lcm(da, db)
    return d, [x * (d // da) for x in a], [y * (d // db) for y in b]


def evaluate_points(c: FixpCircuit, points) -> list[Vec]:
    """The outputs at each of a list of points, from one walk over the gates.

    A gate's value is a common denominator D and its integer numerators
    at all points.  D is fixed by the gate type: the lcm of an input
    coordinate's denominators, a constant's denominator, the lcm of the
    operands' D for add and max, and D_a times the coefficient's
    denominator for mulc.  Only integers move inside the walk; Fractions
    are built at the outputs alone.
    """
    for point in points:
        if len(point) != c.k:
            raise ValueError(f"expected {c.k} inputs, got {len(point)}")
    points = [exact_vec(point) for point in points]
    n = len(points)

    def input_(g, v):
        xs, d = int_vec([point[g.index] for point in points])
        return d, xs

    def add(g, v):
        d, a, b = _aligned(v[g.a], v[g.b])
        return d, [x + y for x, y in zip(a, b)]

    def mulc(g, v):
        da, a = v[g.a]
        q = g.coeff.numerator
        return da * g.coeff.denominator, [q * x for x in a]

    def max_(g, v):
        d, a, b = _aligned(v[g.a], v[g.b])
        return d, [x if x >= y else y for x, y in zip(a, b)]

    values = walk(c.gates, {
        Input: input_,
        Const: lambda g, v: (g.value.denominator, [g.value.numerator] * n),
        Add: add,
        MulC: mulc,
        Max: max_,
    })
    outs = [values[o] for o in c.outputs]
    return [[Fraction(nums[i], d) for d, nums in outs] for i in range(n)]


def evaluate(c: FixpCircuit, point: Vec) -> Vec:
    return evaluate_points(c, [point])[0]


def clamp_outputs(c: FixpCircuit) -> FixpCircuit:
    """Append the two-max clamp max{0, -1*max{-1, -1*t}} to every output.

    The inner gate realizes min{1, t} (negated), the outer gate the final
    max with zero; afterwards evaluation lands in [0,1]^k for every real
    input.  Raises if the circuit is already clamped.
    """
    if c.clamped:
        raise ValueError("circuit outputs are already clamped")
    if len(c.outputs) != c.k:
        raise ValueError(f"fixed-point circuit needs {c.k} outputs, found {len(c.outputs)}")
    b = Builder(c.k, c.gates)
    neg_one, zero = b.const(-1), b.const(0)
    pairs = []
    for ref in c.outputs:
        inner = b.maxg(neg_one, b.neg(ref))
        pairs.append((inner, b.maxg(zero, b.neg(inner))))
    return FixpCircuit(c.k, tuple(b.gates), tuple(outer for _, outer in pairs),
                       normalized=False, clamped=True, clamp_pairs=tuple(pairs))


def normalize_max_zero(c: FixpCircuit) -> FixpCircuit:
    """Rewrite every max gate so one operand is a literal zero constant.

    max{a, b} becomes max{0, b-a} + a, costing at most three extra gates
    per rewritten max (one MulC(-1), two Add) plus a single shared zero
    constant; equal constants and repeated inputs are merged, as Builder
    merges them.  Evaluation is unchanged for every input.
    """
    b = Builder(c.k)
    max_of: dict[int, int] = {}     # old max index -> max gate in new list

    def rewrite_max(g: Max, v) -> int:
        na, nb = v[g.a], v[g.b]
        if c.gates[g.a] == ZERO or c.gates[g.b] == ZERO:
            mx = out = b.maxg(na, nb)
        else:
            diff = b.sub(nb, na)
            mx = b.maxg(b.const(0), diff)
            out = b.add(mx, na)
        max_of[len(v)] = mx
        return out

    value_of = b.copy(c.gates, {Max: rewrite_max})
    outputs = tuple(value_of[o] for o in c.outputs)
    pairs = tuple((max_of[i], max_of[o]) for i, o in c.clamp_pairs)
    return FixpCircuit(c.k, tuple(b.gates), outputs,
                       normalized=True, clamped=c.clamped, clamp_pairs=pairs)


def order_max_gates(c: FixpCircuit) -> list[int]:
    """Topological order of the max gates, clamp gates in the last 2k slots.

    Gate indices are already topological (references point backward), so
    the order is ascending index; this also breaks ties between
    independent gates deterministically.  Per output l the inner clamp
    gate must directly precede the outer one; a circuit violating that
    layout is rejected.
    """
    if not (c.normalized and c.clamped):
        raise ValueError("circuit must be max-zero normalized and clamped")
    order = [i for i, g in enumerate(c.gates) if isinstance(g, Max)]
    tail = [ref for pair in c.clamp_pairs for ref in pair]
    if order[len(order) - 2 * c.k:] != tail:
        raise ValueError("clamp gates are not the final max gates in pair order")
    return order


def circuit_size(c: FixpCircuit) -> int:
    """Inputs + gates + total bit length of all rational constants."""
    bits = 0
    for g in c.gates:
        if isinstance(g, Const):
            bits += _rat_bits(g.value)
        elif isinstance(g, MulC):
            bits += _rat_bits(g.coeff)
    return c.k + len(c.gates) + bits


def _rat_bits(x: Fraction) -> int:
    n = abs(x.numerator).bit_length()
    d = x.denominator.bit_length()
    return max(n, 1) + max(d, 1)


# --- builder -----------------------------------------------------------

class Builder:
    """Incremental circuit constructor with constant deduplication.

    A builder may continue an existing gate list; that list is kept as it
    is, and its constants and inputs are not merged with the new ones.
    """

    def __init__(self, k: int, gates=()):
        self.k = k
        self.gates: list[Gate] = list(gates)
        self._consts: dict[Fraction, int] = {}
        self._inputs: dict[int, int] = {}

    def _emit(self, g: Gate) -> int:
        self.gates.append(g)
        return len(self.gates) - 1

    def input(self, index: int) -> int:
        if index not in self._inputs:
            self._inputs[index] = self._emit(Input(index))
        return self._inputs[index]

    def const(self, value) -> int:
        v = Fraction(value)
        if v not in self._consts:
            self._consts[v] = self._emit(Const(v))
        return self._consts[v]

    def add(self, a: int, b: int) -> int:
        return self._emit(Add(a, b))

    def mulc(self, coeff, a: int) -> int:
        return self._emit(MulC(Fraction(coeff), a))

    def maxg(self, a: int, b: int) -> int:
        return self._emit(Max(a, b))

    def neg(self, a: int) -> int:
        return self.mulc(-1, a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def ming(self, a: int, b: int) -> int:
        # min{a,b} = -max{-a,-b}; the basis has no min primitive
        return self.neg(self.maxg(self.neg(a), self.neg(b)))

    def one_minus(self, a: int) -> int:
        return self.add(self.const(1), self.neg(a))

    def sum_chain(self, refs: list[int]) -> int:
        if not refs:
            return self.const(0)
        acc = refs[0]
        for r in refs[1:]:
            acc = self.add(acc, r)
        return acc

    def copy(self, gates, overrides: dict) -> list[int]:
        """Re-emit a gate list; returns the new index of every old gate.

        `overrides[type(g)](g, v)` replaces the plain re-emission of the
        gates of its class, with v the new indices of the gates before g.
        """
        return walk(gates, {
            Input: lambda g, v: self.input(g.index),
            Const: lambda g, v: self.const(g.value),
            Add: lambda g, v: self.add(v[g.a], v[g.b]),
            MulC: lambda g, v: self.mulc(g.coeff, v[g.a]),
            Max: lambda g, v: self.maxg(v[g.a], v[g.b]),
        } | overrides)

    def build(self, outputs: list[int]) -> FixpCircuit:
        return FixpCircuit(self.k, tuple(self.gates), tuple(outputs))


# --- JSON wire format ---------------------------------------------------

def circuit_to_json(c: FixpCircuit) -> dict:
    doc = {"k": c.k, "gates": [gate_to_json(g, GATES) for g in c.gates],
           "outputs": list(c.outputs)}
    if c.normalized or c.clamped:
        doc["meta"] = {
            "max_zero_normalized": c.normalized,
            "outputs_clamped": c.clamped,
            "clamp_pairs": [list(p) for p in c.clamp_pairs],
        }
    return doc


def circuit_from_json(doc: dict) -> FixpCircuit:
    meta = {"max_zero_normalized": False, "outputs_clamped": False, "clamp_pairs": [],
            **doc.get("meta", {})}
    return FixpCircuit(
        int_from_json(doc["k"]), tuple(gate_from_json(g, GATES) for g in doc["gates"]),
        tuple(int_from_json(o) for o in doc["outputs"]),
        normalized=flag_from_json(meta["max_zero_normalized"]),
        clamped=flag_from_json(meta["outputs_clamped"]),
        clamp_pairs=tuple((int_from_json(a), int_from_json(b)) for a, b in meta["clamp_pairs"]),
    )
