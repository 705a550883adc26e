"""Shared fixtures: the three desk-scale code instances used throughout.

The c0 values are regression constants frozen from the canonical ascending
search; test_parity re-runs the search and asserts it still lands on them.
"""

from __future__ import annotations

import itertools

import pytest

from msrcode import ParityCheckSystem, build_system, make_params
from msrcode.gf import Block

# (q, t, m) -> first c0 the ascending search accepts
FOUND_C0 = {
    (2, 2, 5): 1,
    (3, 2, 4): 2,
    (2, 3, 7): 1,
}

# a nonzero coefficient that fails the subset rank checks (found by scanning)
BAD_C0 = {
    (2, 2, 5): 6,
    (2, 3, 7): 6,
}


def system_for(q: int, t: int, m: int):
    return build_system(make_params(q, t, m).with_c0(FOUND_C0[(q, t, m)]))


def kronecker_system(sys_):
    """J0 alone, the system without the shifted entries (H at c0 = 0):
    each constraint's n in-row terms, through the public constructor."""
    n = sys_.params.n
    return ParityCheckSystem(sys_.params, sys_.hmds, [con[:n] for con in sys_.terms])


@pytest.fixture(scope="session")
def sys22():
    """q=2, t=2 over GF(2^5): n=4, k=2, alpha=4."""
    return system_for(2, 2, 5)


@pytest.fixture(scope="session")
def sys32():
    """q=3, t=2 over GF(2^4): n=6, k=3, alpha=9."""
    return system_for(3, 2, 4)


@pytest.fixture(scope="session")
def sys23():
    """q=2, t=3 over GF(2^7): n=6, k=4, alpha=8."""
    return system_for(2, 3, 7)


@pytest.fixture(scope="session")
def all_systems(sys22, sys32, sys23):
    return [sys22, sys32, sys23]


def eval_constraints(codeword, sys_):
    """Oracle: evaluate every constraint straight off its (node ordinal, row
    ordinal, coeff) triples, on a {node: column} codeword of one stripe."""
    p = sys_.params
    residuals = []
    for con in sys_.terms:
        acc = 0
        for node, row, coeff in con:
            acc ^= p.gf.mul(coeff, codeword[p.node_at(node)][row])
        residuals.append(acc)
    return residuals


def gamma_rows(params, failed):
    """Oracle, the paper's definition of the helper rows for repairing
    failed = (i0, theta0): every row tuple whose coordinate i0 is theta0,
    in ascending order."""
    i0, theta0 = failed
    return sorted(row for row in itertools.product(range(params.q), repeat=params.t)
                  if row[i0 - 1] == theta0)


def row_ordinal(params, row):
    """Oracle, the inverse of CodeParams.row_at: the lexicographic ordinal
    of a row tuple, first coordinate most significant."""
    return sum(x * params.q ** (params.t - 1 - j) for j, x in enumerate(row))


def gamma_ordinals(params, failed):
    """The row ordinals of gamma_rows(params, failed), ascending."""
    return [row_ordinal(params, row) for row in gamma_rows(params, failed)]


def run_ordinals(runs):
    """The row ordinals that (start, length) runs cover, in run order."""
    return [start + g for start, length in runs for g in range(length)]


def to_block(rows, m, stripes=None):
    """Reference: the Block of `rows` (lists of symbols, one per stripe),
    built bit by bit: bit s of plane r*m + b is bit b of rows[r][s]."""
    stripes = len(rows[0]) if stripes is None else stripes
    return Block(m, stripes, [sum((v >> b & 1) << s for s, v in enumerate(row))
                              for row in rows for b in range(m)])


def column_at(block, s):
    """Reference: the symbols of a Block on stripe s, one per row."""
    m = block.m
    return [sum((block.planes[r * m + b] >> s & 1) << b for b in range(m))
            for r in range(len(block.planes) // m)]


def rows_of(block):
    """Reference: a Block as a list of rows of symbols."""
    return [list(row) for row in zip(*(column_at(block, s) for s in range(block.stripes)))] \
        if block.stripes else [[] for _ in range(len(block.planes) // block.m)]


def stripes_of(block, lo, hi):
    """Stripes [lo, hi) of a Block."""
    return Block(block.m, hi - lo, [plane >> lo & ((1 << (hi - lo)) - 1)
                                    for plane in block.planes])


def random_block(params, rng, stripes, rows=None):
    """A random (rows, stripes) Block over the code's field, by default a
    (k*alpha, stripes) message block; rng is a random.Random."""
    rows = params.message_len if rows is None else rows
    return to_block([[rng.randrange(params.gf.order) for _ in range(stripes)]
                     for _ in range(rows)], params.gf.m, stripes)


def stripe_array(columns, s, params):
    """Stripe s of a batch {node: (alpha, stripes) Block} as a {node:
    column} codeword of ints."""
    return {nd: column_at(columns[nd], s) for nd in params.nodes()}
