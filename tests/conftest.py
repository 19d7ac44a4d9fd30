import random
from fractions import Fraction as F

import pytest

from nashforge import brouwer, compiler, fixp


def one_minus_circuit():
    """F(x) = 1 - x, the worked instance used across the suite."""
    b = fixp.Builder(1)
    return b.build([b.one_minus(b.input(0))])


def swap_circuit():
    """F(x1, x2) = (x2, x1); its fixed points form the diagonal."""
    b = fixp.Builder(2)
    return b.build([b.input(1), b.input(0)])


def false_clamp_claim_circuit():
    """Normalized and claiming clamped outputs, but its "clamp pair" (2, 3)
    is max{0, x} and max{0, max{0, x}}, not the clamp gadget: it decodes
    and evaluates, and only its LP (row 1 reads x_0 alone) shows the lie."""
    return fixp.FixpCircuit(
        1, (fixp.Input(0), fixp.Const(F(0)), fixp.Max(1, 0), fixp.Max(1, 2)), (3,),
        normalized=True, clamped=True, clamp_pairs=((2, 3),))


def random_raw_circuit(rng: random.Random, k: int, max_max_gates: int,
                       const_bits: int = 8) -> fixp.FixpCircuit:
    """Random DAG circuit over the full basis with bounded max-gate count."""
    b = fixp.Builder(k)
    refs = [b.input(i) for i in range(k)]
    max_budget = max_max_gates
    bound = 2 ** const_bits - 1
    for _ in range(rng.randint(2, 10)):
        ops = ["const", "add", "mulc"] + (["max"] if max_budget else [])
        op = rng.choice(ops)
        if op == "const":
            refs.append(b.const(F(rng.randint(-bound, bound), rng.randint(1, bound))))
        elif op == "add":
            refs.append(b.add(rng.choice(refs), rng.choice(refs)))
        elif op == "mulc":
            coeff = F(rng.randint(-bound, bound), rng.randint(1, bound))
            refs.append(b.mulc(coeff, rng.choice(refs)))
        else:
            refs.append(b.maxg(rng.choice(refs), rng.choice(refs)))
            max_budget -= 1
    outputs = [rng.choice(refs) for _ in range(k)]
    return b.build(outputs)


def random_lambda(rng: random.Random, k: int, spread: int = 3) -> list:
    """Random rational parameter vectors, inside and outside the unit box."""
    return [F(rng.randint(-spread * 8, spread * 8), rng.randint(1, 8)) for _ in range(k)]


@pytest.fixture
def rng():
    return random.Random(20240817)


class SyntheticTrial:
    """Hand-built sampling configuration: a diagonal sample run crossing
    k cell walls, a color bijection on the visited cells, designated
    "poor" samples absorbing the drift, and the full-grid coloring."""

    def __init__(self, grid, samples, well_flags, chain, color_of, poor_incs):
        self.grid = grid
        self.samples = samples
        self.well_flags = well_flags
        self.chain = chain
        self.color_of = color_of
        self.poor_incs = poor_incs

    def color_fn(self, p):
        return self.color_of.get(tuple(p), 0)


def make_synthetic_trial(rng: random.Random, k: int, exact_zero: bool) -> SyntheticTrial:
    grid = brouwer.Grid(k, 2)
    count = max(16, k ** 4)
    L = 32 if k == 2 else 128
    while True:
        # crossing sample indices, roughly equidistant, spaced >= 2
        crossings = []
        ok = True
        for t in range(1, k + 1):
            m = round(t * count / (k + 1)) + rng.randint(-1, 1)
            if crossings and m - crossings[-1] < 2:
                ok = False
                break
            crossings.append(m)
        if not ok or crossings[0] < 2 or crossings[-1] > count - 2:
            continue
        order = list(range(k))
        rng.shuffle(order)
        base = tuple(rng.randint(0, grid.side - 2) for _ in range(k))
        point = [F(0)] * k
        for t, coord in enumerate(order):
            point[coord] = base[coord] + 1 - F(2 * crossings[t] - 1, 2 * L)
        samples = [[point[i] + F(j, L) for i in range(k)] for j in range(count)]
        chain = [base]
        for coord in order:
            prev = chain[-1]
            chain.append(tuple(v + (1 if i == coord else 0) for i, v in enumerate(prev)))
        colors = list(range(k + 1))
        rng.shuffle(colors)
        color_of = {cell: colors[t] for t, cell in enumerate(chain)}
        poor = {m - 1 for m in crossings}
        flags = [j not in poor for j in range(count)]
        trial = SyntheticTrial(grid, samples, flags, chain, color_of, None)
        well_sum = compiler.sampled_increment_sum(
            samples, flags, trial.color_fn, grid)
        if max(abs(v) for v in well_sum) > k:
            continue
        scale = F(1) if exact_zero else F(7, 8)
        trial.poor_incs = [[-v * scale / k for v in well_sum] for _ in range(k)]
        return trial
