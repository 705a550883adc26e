"""Parameter derivations, ordinal bijections, and the repair row geometry."""

import itertools
from fractions import Fraction

import pytest

from conftest import gamma_ordinals, row_ordinal, run_ordinals
from msrcode import GF2M, CodeParams, make_params
from msrcode.params import smallest_field_degree


def test_q2_t3_dimensions():
    p = make_params(2, 3, 7)
    assert (p.n, p.k, p.d) == (6, 4, 5)
    assert (p.alpha, p.beta, p.message_len) == (8, 4, 32)


def test_q3_t3_dimensions():
    p = make_params(3, 3, 8)
    assert (p.n, p.k, p.d) == (9, 6, 8)
    assert (p.alpha, p.beta, p.message_len) == (27, 9, 162)


def test_q2_t2_dimensions():
    p = make_params(2, 2, 5)
    assert (p.n, p.k, p.d) == (4, 2, 3)
    assert (p.alpha, p.beta, p.message_len) == (4, 2, 8)


def test_q1_rejected():
    with pytest.raises(ValueError):
        make_params(1, 3, 8)


def test_t1_rejected():
    with pytest.raises(ValueError):
        make_params(3, 1, 8)


def test_field_too_small_rejected():
    with pytest.raises(ValueError):
        make_params(3, 3, 3)  # n=9 > 2^3 - 1
    make_params(3, 3, 4)  # 15 >= 9 is fine


def test_smallest_field_degree():
    assert [smallest_field_degree(n) for n in (1, 2, 4, 7, 8, 65535)] == [1, 2, 3, 3, 4, 16]
    with pytest.raises(ValueError, match="GF\\(2\\^16\\)"):
        smallest_field_degree(65536)


def test_msr_point_identities():
    for q, t, m in [(2, 2, 5), (3, 2, 4), (2, 3, 7), (3, 3, 8), (6, 2, 4), (2, 5, 6)]:
        p = make_params(q, t, m)
        assert p.alpha == (p.d - p.k + 1) * p.beta
        assert p.message_len == p.k * p.alpha
        # alpha as a polynomial in the dimension: (k/(t-1))^t = (n/t)^t
        assert p.alpha == (p.k // (p.t - 1)) ** p.t == (p.n // p.t) ** p.t
        assert p.rate == Fraction(t - 1, t)
        assert p.alpha * (p.n - p.k) == q ** (t + 1)


def test_c0_handling():
    p = make_params(2, 2, 5)
    assert p.c0 is None
    p2 = p.with_c0(3)
    assert p2.c0 == 3 and p.c0 is None
    assert repr(p) == "CodeParams(q=2, t=2, gf=GF2M(m=5, poly=0x25))"
    assert repr(p2) == "CodeParams(q=2, t=2, gf=GF2M(m=5, poly=0x25), c0=3)"
    with pytest.raises(ValueError):
        p.with_c0(0)
    with pytest.raises(ValueError):
        p.with_c0(p.gf.order)  # 32: not a field element


def test_params_are_immutable_values():
    gf = GF2M(5)
    p = CodeParams(2, 2, gf, 3)
    same = CodeParams(q=2, t=2, gf=gf, c0=3)
    assert p == same and hash(p) == hash(same) and p.with_c0(3) == p
    assert p != CodeParams(2, 2, gf) and p == CodeParams(2, 2, GF2M(5), 3)
    for name in ("q", "c0", "gf"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
    assert p.c0 == 3
    with pytest.raises(ValueError):
        CodeParams(q=1, t=2, gf=gf)  # the keyword form validates too


# -- ordinals -------------------------------------------------------------------


def test_row_ordinal_examples():
    p = make_params(2, 3, 7)
    assert row_ordinal(p, (0, 0, 0)) == 0 and p.row_at(0) == (0, 0, 0)
    assert row_ordinal(p, (1, 0, 1)) == 5 and p.row_at(5) == (1, 0, 1)
    p32 = make_params(3, 2, 4)
    assert row_ordinal(p32, (2, 1)) == 7 and p32.row_at(7) == (2, 1)


def test_node_ordinal_examples():
    p = make_params(2, 3, 7)
    assert p.node_ordinal((1, 0)) == 0
    assert p.node_ordinal((3, 1)) == 5
    p33 = make_params(3, 3, 8)
    assert p33.node_ordinal((2, 2)) == 5


@pytest.mark.parametrize("q,t,m", [(2, 2, 5), (3, 2, 4), (2, 3, 7), (3, 3, 8), (6, 2, 4), (2, 5, 6)])
def test_row_ordinal_bijection_exhaustive(q, t, m):
    p = make_params(q, t, m)
    seen = set()
    for i, row in enumerate(p.rows()):
        o = row_ordinal(p, row)
        assert o == i  # rows() yields ascending ordinals
        assert p.row_at(o) == row
        seen.add(o)
    assert seen == set(range(p.alpha))


@pytest.mark.parametrize("q,t,m", [(2, 2, 5), (3, 2, 4), (2, 3, 7), (3, 3, 8)])
def test_node_ordinal_bijection_exhaustive(q, t, m):
    p = make_params(q, t, m)
    for i, node in enumerate(p.nodes()):
        assert p.node_ordinal(node) == i
        assert p.node_at(i) == node


def test_ordinal_range_errors():
    p = make_params(2, 3, 7)
    with pytest.raises(ValueError):
        p.row_at(8)
    with pytest.raises(ValueError):
        p.row_at(-1)
    with pytest.raises(ValueError):
        p.node_at(6)
    with pytest.raises(ValueError):
        p.node_ordinal((4, 0))
    with pytest.raises(ValueError):
        p.node_ordinal((0, 0))


def test_systematic_and_parity_split():
    p = make_params(2, 3, 7)
    sysn = p.systematic_nodes()
    assert sysn == ((1, 0), (1, 1), (2, 0), (2, 1))
    assert [p.node_ordinal(nd) for nd in sysn] == [0, 1, 2, 3]


# -- repair rows -----------------------------------------------------------------


def expanded(p, node):
    """The row tuples gamma_runs(node) covers, in run order."""
    return [p.row_at(o) for o in run_ordinals(p.gamma_runs(node))]


def test_gamma_rows_first_class():
    p = make_params(2, 3, 7)
    assert expanded(p, (1, 0)) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]


def test_gamma_rows_last_class():
    p = make_params(2, 3, 7)
    assert expanded(p, (3, 1)) == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]


@pytest.mark.parametrize("q,t,m", [(2, 2, 5), (3, 2, 4), (2, 3, 7), (3, 3, 8)])
def test_gamma_rows_shape_and_order(q, t, m):
    p = make_params(q, t, m)
    for node in p.nodes():
        i0, theta0 = node
        rows = expanded(p, node)
        assert len(rows) == p.beta
        assert len(set(rows)) == p.beta
        assert all(r[i0 - 1] == theta0 for r in rows)
        ords = [row_ordinal(p, r) for r in rows]
        assert ords == sorted(ords)


@pytest.mark.parametrize("q,t,m", [(2, 3, 7), (3, 3, 8)])
def test_gamma_rows_partition_row_space(q, t, m):
    p = make_params(q, t, m)
    for i0 in range(1, t + 1):
        union = list(itertools.chain.from_iterable(
            expanded(p, (i0, theta)) for theta in range(q)))
        assert len(union) == p.alpha
        assert set(union) == set(p.rows())


@pytest.mark.parametrize("q,t", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (3, 4)])
def test_gamma_runs_are_the_papers_rows_in_separate_runs(q, t):
    # the one definition of a helper's rows against the paper's: every row
    # whose coordinate i0 is theta0, ascending.  No two runs touch, so a
    # reader cannot merge them: rebuild makes one read per run per block
    p = make_params(q, t, smallest_field_degree(q * t))
    for node in p.nodes():
        runs = p.gamma_runs(node)
        assert run_ordinals(runs) == gamma_ordinals(p, node)
        assert all(length > 0 for _, length in runs)
        assert all(a + n < b for (a, n), (b, _) in zip(runs, runs[1:]))
    with pytest.raises(ValueError):
        p.gamma_runs((t + 1, 0))
