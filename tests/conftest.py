"""Shared fixtures: the three desk-scale code instances used throughout.

The c0 values are regression constants frozen from the canonical ascending
search; test_parity re-runs the search and asserts it still lands on them.
"""

from __future__ import annotations

import pytest

from msrcode import build_system, make_params

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
    params = make_params(q, t, m).with_c0(FOUND_C0[(q, t, m)])
    return build_system(params, params.c0)


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
    """Oracle: evaluate every constraint straight off its term list, on a
    {node: column} codeword of one stripe."""
    p = sys_.params
    residuals = []
    for con in sys_.constraints:
        acc = 0
        for term in con.terms:
            acc ^= p.gf.mul(term.coeff, codeword[term.node][p.row_ordinal(term.row)])
        residuals.append(acc)
    return residuals


def stripe_array(columns, s, params):
    """Stripe s of a batch {node: (alpha, stripes)} block as a {node: column}
    codeword of ints."""
    return {nd: columns[nd][:, s].tolist() for nd in params.nodes()}
