"""Exact rational scalars, vectors and matrices.

Every computation in this package runs over arbitrary-precision rationals;
floating point never appears.  Scalars are `fractions.Fraction` (stored in
lowest terms with a positive denominator, which the stdlib guarantees),
vectors are lists of Fractions, and matrices are row-major lists of rows,
dense (`Mat`) or sparse (`Row`, no stored zeros).

Rationals serialize as the string "p/q" with the sign on the numerator and
"/q" omitted when the denominator is 1; circuit gates serialize through
one table per gate family (see "circuit gates" below).
"""

from __future__ import annotations

import re
from dataclasses import fields
from fractions import Fraction
from functools import cache
from math import lcm
from operator import attrgetter
from typing import NewType, get_type_hints

Vec = list[Fraction]
Mat = list[list[Fraction]]
# a sparse row, column -> nonzero entry; a list of them is the one sparse
# matrix form the LP, the LCPs and the games share
Row = dict[int, Fraction]
# a gate field holding the index of an earlier gate in the same circuit
Ref = NewType("Ref", int)


# --- scalar construction and serialization ---

def int_from_json(v) -> int:
    """A JSON integer; rejects `true`/`false`, floats and strings."""
    if type(v) is not int:
        raise TypeError(f"expected JSON integer, got {type(v).__name__}")
    return v


def flag_from_json(v) -> bool:
    """A JSON boolean; rejects 0/1 and strings such as "false"."""
    if type(v) is not bool:
        raise TypeError(f"expected JSON true or false, got {type(v).__name__}")
    return v


# the "p/q" wire form: ASCII digits, no sign but a leading "-", no spaces or "_"
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"-?[0-9]+")


def exact_vec(v) -> Vec:
    """The entries of v as Fractions.  Each must be an int or a Fraction:
    a bool, a float or a string is refused with a TypeError naming its
    index, since Fraction() would read 0.1 as its binary expansion and
    parse "1/4" as text."""
    out = []
    for i, x in enumerate(v):
        if type(x) is int:
            x = Fraction(x)
        elif not isinstance(x, Fraction):
            raise TypeError(f"entry {i} is {x!r} ({type(x).__name__}); "
                            "expected an int or a Fraction")
        out.append(x)
    return out


def rat_from_str(s) -> Fraction:
    """Parse the "p/q" wire form (also accepts a bare integer)."""
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"expected rational string, got {type(s).__name__}")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ValueError(f"malformed rational {s!r}")
    num, den = (int(v) for v in match.groups("1"))
    if den == 0:
        raise ValueError(f"denominator must be positive in {s!r}")
    return Fraction(num, den)


def int_from_str(s: str) -> int:
    """Parse an integer command-line value in the wire's form, ASCII -?[0-9]+."""
    if _INTEGER.fullmatch(s) is None:
        raise ValueError(f"malformed integer {s!r}")
    return int(s)


def rat_to_str(x: Fraction) -> str:
    return str(x)


def vec_from_strs(items) -> Vec:
    if not isinstance(items, list):
        raise TypeError(f"expected JSON list, got {type(items).__name__}")
    return [rat_from_str(s) for s in items]


def vec_to_strs(v: Vec) -> list[str]:
    return [rat_to_str(x) for x in v]


def rows_from_strs(rows) -> tuple[list[Row], int]:
    """Parse a matrix of wire rationals into sparse rows, and its column
    count.  Each distinct string is parsed once, and entries with equal text
    share one Fraction; any other value is parsed (or refused) entry by
    entry.  Zeros, however spelled, are dropped.  Raises like `mat_shape`
    on an empty or ragged matrix, after every entry has been parsed."""
    if not isinstance(rows, list):
        raise TypeError(f"expected JSON list, got {type(rows).__name__}")
    memo: dict[str, Fraction] = {}

    def parse(s) -> Fraction:
        if type(s) is not str:
            return rat_from_str(s)
        x = memo[s] = rat_from_str(s)
        return x

    out = []
    for r in rows:
        if not isinstance(r, list):
            raise TypeError(f"expected JSON list, got {type(r).__name__}")
        # "0" is most of a payoff matrix; other spellings of zero are parsed
        out.append({j: x for j, s in enumerate(r) if s != "0"
                    and (x := memo[s] if type(s) is str and s in memo else parse(s))})
    return out, mat_shape(rows)[1]


def rows_to_strs(rows: list[Row], n: int) -> list[list[str]]:
    """The n-column wire form of sparse rows; every absent entry is one
    shared "0" string."""
    zero = rat_to_str(Fraction(0))
    out = []
    for row in rows:
        strs = [zero] * n
        for j, v in row.items():
            strs[j] = rat_to_str(v)
        out.append(strs)
    return out


# --- circuit gates ---
#
# A gate family is a set of frozen dataclasses plus a table
# {gate class: (op name, wire keys in field order)}.  Field annotations
# decide the wire form: Fraction fields travel as rational strings, int
# and Ref fields as JSON integers, and Ref fields are the gate's operands.
# Every gate reads only earlier gates, so each interpreter of a family is
# one table {gate class: semantics} run by `walk` in list order.


@cache
def _wire_fields(cls) -> tuple[tuple[str, type], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


@cache
def _operand_getter(cls):
    # circuits check every gate's operands on construction, so this is a
    # bare attribute fetch rather than a walk over the fields
    names = tuple(name for name, t in _wire_fields(cls) if t is Ref)
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda g: (get(g),)
    return attrgetter(*names) if names else lambda g: ()


def gate_refs(g) -> tuple[int, ...]:
    """Indices of the earlier gates that g reads."""
    return _operand_getter(type(g))(g)


def check_dag(gates, outputs) -> None:
    """ValueError unless every gate reads earlier gates and every output names a gate."""
    for i, g in enumerate(gates):
        for ref in gate_refs(g):
            if not 0 <= ref < i:
                raise ValueError(f"gate {i} references {ref}; only earlier gates allowed")
    for ref in outputs:
        if not 0 <= ref < len(gates):
            raise ValueError(f"output ref {ref} out of range")


def walk(gates, ops: dict) -> list:
    """The value of every gate in list order; `ops[type(g)](g, values)`
    gives g's value from the values of the gates before it."""
    values: list = []
    for g in gates:
        values.append(ops[type(g)](g, values))
    return values


def gate_to_json(g, table: dict) -> dict:
    op, keys = table[type(g)]
    doc = {"op": op}
    for key, (name, t) in zip(keys, _wire_fields(type(g))):
        value = getattr(g, name)
        doc[key] = rat_to_str(value) if t is Fraction else value
    return doc


def gate_from_json(doc: dict, table: dict):
    """Decode one gate; raises KeyError, TypeError or ValueError if malformed."""
    if not isinstance(doc, dict):
        raise TypeError(f"gate must be a JSON object, got {type(doc).__name__}")
    op = doc["op"]
    for cls, (name, keys) in table.items():
        if name == op:
            return cls(*(rat_from_str(doc[key]) if t is Fraction else int_from_json(doc[key])
                         for key, (_, t) in zip(keys, _wire_fields(cls))))
    raise ValueError(f"unknown gate op {op!r}")


# --- shapes and constructors ---

def mat_shape(m: Mat) -> tuple[int, int]:
    """Return (rows, cols); raises on empty or ragged input."""
    if not m or not m[0]:
        raise ValueError("matrix must be nonempty")
    cols = len(m[0])
    for row in m:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    return len(m), cols


def zeros_vec(n: int) -> Vec:
    return [Fraction(0)] * n


# --- sparse rows ---

def row_add(a: Row, b: Row) -> Row:
    """a + b, dropping the entries that cancel."""
    out = dict(a)
    for j, v in b.items():
        s = out.get(j, 0) + v
        if s:
            out[j] = s
        else:
            out.pop(j, None)
    return out


def sparse_transpose(rows: list[Row], n: int) -> list[Row]:
    """The n columns of a sparse matrix, as sparse rows."""
    cols: list[Row] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def spread(row: Row, n: int) -> Vec:
    """The length-n vector with these entries and zeros elsewhere."""
    dense = zeros_vec(n)
    for j, v in row.items():
        dense[j] = v
    return dense


def densify(rows: list[Row], n: int) -> Mat:
    """Dense n-column view; each row's zero entries share one object, which
    keeps an m^2 view small."""
    return [spread(row, n) for row in rows]


# --- structure predicates ---

def is_upper_triangular(rows: list[Row]) -> bool:
    """True iff every entry strictly below the diagonal is zero."""
    return all(j >= i for i, row in enumerate(rows) for j in row)


# --- elimination ---

def int_matrix(M: Mat) -> tuple[list[list[int]], int]:
    """M times the lcm of its denominators, and that lcm.  A positive
    factor on a whole matrix leaves its rank, and every best response of a
    payoff matrix, alone."""
    d = lcm(*(v.denominator for row in M for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in M], d


def int_vec(v: Vec) -> tuple[list[int], int]:
    """v times the lcm of its denominators, and that lcm.  v is read twice,
    so it may be a list or a sparse row's `values()`, not an iterator."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def rank(m: Mat) -> int:
    """Exact rank over the rationals, by fraction-free (Bareiss)
    Gauss-Jordan elimination of m with its denominators cleared.

    Pivots are taken in column order, from the first row at or below the
    pivot row that is nonzero there.  A step on pivot q rewrites every
    other row as (q row - f pivot_row) / q_prev, an exact division by
    Sylvester's identity, so entries stay integral and never blow up into
    huge fractions.
    """
    _, cols = mat_shape(m)
    rows = int_matrix(m)[0]
    n = len(rows)
    prev = 1
    pr = 0
    for col in range(cols):
        piv = next((i for i in range(pr, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        prow = rows[pr]
        q = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != pr and (f or q != prev):
                new = [q * a - f * b for a, b in zip(row, prow)]
                if prev != 1:
                    new = [divmod(v, prev) for v in new]
                    if any(rem for _, rem in new):
                        raise AssertionError("fraction-free elimination left a remainder")
                    new = [v for v, _ in new]
                rows[i] = new
        prev = q
        pr += 1
    return pr
