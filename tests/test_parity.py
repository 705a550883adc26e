"""Constraint assembly, the sparse rows of H, GF linear algebra, the plan
fingerprints, and the c0 search.

Independent oracles used here: rank via row-space enumeration (small
matrices), rank via dense first-nonzero-pivot elimination, an explicit
Kronecker-product builder, rows of H read straight off the constraint
triples, multiply-then-solve round trips, the rank of the whole thick
submatrix for the c the search forbids from the blocks of I + c*M_S, and
I + c*B eliminated at every c for the c a block B forbids.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BAD_C0, FOUND_C0, column_at, gamma_ordinals, kronecker_system, random_block,
                      row_ordinal)
from msrcode import CodeParams, make_params
from msrcode.btf import forbidden_c, shift_blocks
from msrcode.gf import GF2M, Block
from msrcode import parity
from msrcode.parity import (
    NoValidC0,
    ParityCheckSystem,
    _eliminate,
    build_hmds,
    build_system,
    check_mds_ranks,
    find_code,
    gf_rank,
    node_subsets,
    run_plan,
    valid_c0s,
)


def span_rank(rows, gf):
    """Oracle: rank = log_|F| of the row-span size, by brute enumeration."""
    span = {tuple([0] * len(rows[0]))}
    for row in rows:
        new = set()
        for vec in span:
            for c in range(gf.order):
                new.add(tuple(v ^ gf.mul(c, r) for v, r in zip(vec, row)))
        span = new
    size = len(span)
    rank = 0
    while size > 1:
        size //= gf.order
        rank += 1
    return rank


def dense_rank(mat, gf):
    """Oracle: row rank by dense Gaussian elimination, pivoting on the first
    nonzero row in column order."""
    rows = [list(r) for r in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        pinv = gf.inv(prow[col])
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                scale = gf.mul(f, pinv)
                row = rows[r]
                for c in range(col, ncols):
                    if prow[c]:
                        row[c] ^= gf.mul(scale, prow[c])
        rank += 1
        if rank == len(rows):
            break
    return rank


def full_rank_factors(rng, r, k, c, order):
    """A (r x k) and B (k x c), both of rank k: A is unit lower triangular in
    its top k rows, B upper triangular with a nonzero diagonal."""
    a = [[rng.randrange(order) if j < i else int(i == j) for j in range(k)] for i in range(r)]
    b = [[rng.randrange(order) if j > i else 0 for j in range(c)] for i in range(k)]
    for i in range(k):
        b[i][i] = rng.randrange(1, order)
    return a, b


def matmul(a, b, width, gf):
    """a (r x k) times b (k x width); width is explicit so k may be 0."""
    out = [[0] * width for _ in a]
    for i, row in enumerate(a):
        for c, v in enumerate(row):
            for j in range(width):
                out[i][j] ^= gf.mul(v, b[c][j])
    return out


def decoded(sys_):
    """Each constraint decoded from its (node ordinal, row ordinal, coeff)
    triples: (delta, anchor row, [(row, node, coeff), ...] in term order),
    with constraint index delta*alpha + anchor ordinal."""
    p = sys_.params
    for idx, con in enumerate(sys_.terms):
        delta, anchor = divmod(idx, p.alpha)
        yield delta, p.row_at(anchor), [(p.row_at(row), p.node_at(node), coeff)
                                        for node, row, coeff in con]


def oracle_rows(sys_, nodes):
    """Oracle: the sparse rows of the thick submatrix over `nodes`, read
    straight off each constraint's triples; column = position of the node
    among `nodes` (in node order) * alpha + row ordinal."""
    p = sys_.params
    chosen = sorted(set(nodes), key=p.node_ordinal)
    base = {nd: i * p.alpha for i, nd in enumerate(chosen)}
    return [{base[p.node_at(node)] + row: coeff for node, row, coeff in con
             if p.node_at(node) in base}
            for con in sys_.terms]


def dense(rows, width):
    """Sparse {column: value} rows as a dense matrix of `width` columns."""
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def solve_linear(mat, rhs, gf):
    """Solve M.x = rhs with the recorded elimination, loaded and run the way
    completion_map and run_plan do: rhs[r] into slot slot_of_row[r]."""
    n = len(rhs)
    slot_of_row, elimination = _eliminate([{c: v for c, v in enumerate(r) if v} for r in mat], gf)
    plan = [(n + slot_of_row[r], 1, r) for r in range(n)]
    plan += [(n + dst, coeff, n + src) for dst, coeff, src in elimination]
    return run_plan(plan, [list(rhs)], n, gf)


def kron_with_identity(h, block):
    """Oracle: h (q x n) Kronecker identity of side `block`, explicit loops."""
    rows = len(h) * block
    cols = len(h[0]) * block
    out = [[0] * cols for _ in range(rows)]
    for r, hrow in enumerate(h):
        for c, v in enumerate(hrow):
            for b in range(block):
                out[r * block + b][c * block + b] = v
    return out


# -- hmds ---------------------------------------------------------------------


def test_hmds_row0_all_ones(all_systems):
    for sys_ in all_systems:
        assert all(v == 1 for v in sys_.hmds[0])


def test_hmds_generator_powers_q2_n4():
    p = make_params(2, 2, 3)
    gf = p.gf
    h = build_hmds(p)
    assert h[1] == [gf.exp(1), gf.exp(2), gf.exp(3), gf.exp(4)]
    assert len(set(h[1])) == 4
    assert all(v != 0 for v in h[1])


def test_hmds_every_entry_nonzero(all_systems):
    for sys_ in all_systems:
        assert all(v != 0 for row in sys_.hmds for v in row)


def test_hmds_all_q_column_subsets_full_rank():
    p = make_params(2, 2, 3)
    h = build_hmds(p)
    for cols in itertools.combinations(range(4), 2):
        sub = [[row[c] for c in cols] for row in h]
        assert gf_rank(sub, p.gf) == 2
        assert span_rank(sub, p.gf) == 2


# -- constraint structure -------------------------------------------------------


def test_constraint_counts_and_weights(sys23):
    p = sys23.params
    assert len(sys23.terms) == 16 == p.q ** (p.t + 1)
    row_parities = [terms for delta, _, terms in decoded(sys23) if delta == 0]
    delta_parities = [terms for delta, _, terms in decoded(sys23) if delta != 0]
    assert len(row_parities) == 8 and len(delta_parities) == 8
    assert all(len(terms) == 6 for terms in row_parities)
    assert all(len(terms) == 9 for terms in delta_parities)


def test_constraint_count_matches_alpha_times_redundancy(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        assert len(sys_.terms) == p.alpha * (p.n - p.k) == p.q ** (p.t + 1)


def test_row_parity_terms_stay_on_anchor(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        for delta, anchor, terms in decoded(sys_):
            if delta == 0:
                assert len(terms) == p.n
                assert all(row == anchor for row, _, _ in terms)


def test_delta_parity_shifted_terms(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        for delta, anchor, terms in decoded(sys_):
            if delta == 0:
                continue
            in_row = terms[: p.n]
            shifted = terms[p.n :]
            assert len(shifted) == p.t
            assert all(row == anchor for row, _, _ in in_row)
            for j, (row, node, coeff) in enumerate(shifted, start=1):
                xj = anchor[j - 1]
                assert node == (j, xj)
                expected = list(anchor)
                expected[j - 1] = (xj - delta) % p.q
                assert row == tuple(expected)
                assert row != anchor
                assert coeff == sys_.params.c0


def test_in_row_coefficients_come_from_hmds(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        for delta, _, terms in decoded(sys_):
            for _, node, coeff in terms[: p.n]:
                assert coeff == sys_.hmds[delta][p.node_ordinal(node)]


def test_constraint_ordering_delta_major(sys23):
    # constraint idx opens with the n in-row terms, in node order, on row
    # ordinal idx mod alpha, weighted by Vandermonde row idx div alpha
    p = sys23.params
    idx = 0
    for delta in range(p.q):
        for row in p.rows():
            in_row = sys23.terms[idx][: p.n]
            assert in_row == tuple((o, row_ordinal(p, row), sys23.hmds[delta][o])
                                   for o in range(p.n))
            idx += 1
    assert idx == len(sys23.terms)


def test_all_coefficients_nonzero(all_systems):
    for sys_ in all_systems:
        for con in sys_.terms:
            assert all(coeff != 0 for _, _, coeff in con)


def test_shifted_entries_only_in_matching_thick_column(sys23):
    # in thick column (i, theta), shifted entries appear only in constraints
    # whose anchor has coordinate i equal to theta
    p = sys23.params
    for _, anchor, terms in decoded(sys23):
        for _, (i, theta), _ in terms[p.n :]:
            assert anchor[i - 1] == theta


# -- H as sparse rows -------------------------------------------------------------


def test_flatten_shape_and_support(sys22):
    # H over all nodes: q^(t+1) rows on n*alpha columns, every one used
    p = sys22.params
    rows = sys22.thick_rows(p.nodes())
    assert len(rows) == 8 and set().union(*rows) == set(range(16))  # q^(t+1) x n*alpha
    for idx, row in enumerate(rows):
        assert len(row) == (p.n if idx < p.alpha else p.n + p.t)


def test_flatten_support_disjointness(all_systems):
    # no two terms of one constraint may share a column of H, and a system
    # whose constraint repeats a symbol is refused when it is built
    for sys_ in all_systems:
        p = sys_.params
        for con in sys_.terms:
            cols = [node * p.alpha + row for node, row, _ in con]
            assert len(cols) == len(set(cols))
        clash = sys_.terms[-1] + sys_.terms[-1][-1:]
        with pytest.raises(ValueError, match="must not collide"):
            ParityCheckSystem(p, sys_.hmds, [*sys_.terms[:-1], clash])


def test_flatten_at_c0_zero_is_kronecker(sys22, sys23):
    # criterion 4: H at c0 = 0 is the Vandermonde matrix Kronecker identity
    for sys_ in (sys22, sys23):
        p = sys_.params
        plain = kronecker_system(sys_)
        h = dense(plain.thick_rows(p.nodes()), p.n * p.alpha)
        assert h == kron_with_identity(plain.hmds, p.alpha)


def test_thick_submatrix_square_for_q_nodes(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        nodes = list(p.nodes())[: p.q]
        rows = sys_.thick_rows(nodes)
        assert len(rows) == p.q ** (p.t + 1)
        assert set().union(*rows) == set(range(p.q * p.alpha)) and p.q * p.alpha == len(rows)


def test_thick_submatrix_all_nodes_equals_flatten(sys22):
    # the rows over all nodes, in any order and with repeats, are H itself
    nodes = list(sys22.params.nodes())
    assert sys22.thick_rows(nodes[::-1] + nodes) == oracle_rows(sys22, nodes)


def test_thick_submatrix_column_count(sys23):
    p = sys23.params
    for size in (1, 3, p.n):
        nodes = list(p.nodes())[:size]
        rows = sys23.thick_rows(nodes)
        assert set().union(*rows) == set(range(size * p.alpha))


def test_thick_submatrix_empty_rejected(sys22):
    with pytest.raises(ValueError):
        sys22.thick_rows([])


# -- linear algebra ---------------------------------------------------------------


def test_rank_identity_and_zero():
    gf = GF2M(5)
    ident = [[int(i == j) for j in range(8)] for i in range(8)]
    assert gf_rank(ident, gf) == 8
    assert gf_rank([[0] * 8 for _ in range(8)], gf) == 0


def test_rank_hmds_q2():
    p = make_params(2, 2, 3)
    assert gf_rank(build_hmds(p), p.gf) == 2


def test_rank_matches_span_oracle_random():
    gf = GF2M(3)
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        mat = [[rng.randrange(8) for _ in range(cols)] for _ in range(rows)]
        assert gf_rank(mat, gf) == span_rank(mat, gf)


@pytest.mark.parametrize("q,t,m,last_c", [(3, 2, 4, 15), (2, 3, 7, 8)])
def test_rank_matches_dense_oracle_on_thick_submatrices(q, t, m, last_c):
    # the candidates include c0 values whose subsets are rank deficient
    p = make_params(q, t, m)
    deficient = 0
    for c in range(1, last_c + 1):
        sys_ = build_system(p.with_c0(c))
        for subset in node_subsets(p, p.q):
            rows = sys_.thick_rows(subset)
            assert rows == oracle_rows(sys_, subset)
            assert all(list(row) == sorted(row) for row in rows)
            sub = dense(rows, p.q * p.alpha)
            rank = gf_rank(sub, p.gf)
            assert rank == dense_rank(sub, p.gf) == gf_rank(rows, p.gf)
            deficient += rank < len(sub)
    assert deficient > 0


@pytest.mark.parametrize("r,k,c", [
    (7, 3, 4),  # tall
    (5, 5, 5),
    (2, 2, 9),  # wide
    (3, 1, 6),
    (0, 0, 5),  # no rows
    (4, 0, 3),  # all-zero rows
])
def test_rank_of_rectangular_product(r, k, c):
    gf = GF2M(4)
    rng = random.Random(r * 100 + k * 10 + c)
    for _ in range(5):
        a, b = full_rank_factors(rng, r, k, c, gf.order)
        mat = matmul(a, b, c, gf)
        assert len(mat) == r
        assert gf_rank(mat, gf) == k


def test_rank_of_duplicated_rows():
    gf = GF2M(4)
    row = [3, 1, 9, 14]
    assert gf_rank([row, row, [gf.mul(5, v) for v in row]], gf) == 1


def test_solve_linear_identity_and_zero():
    gf = GF2M(5)
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert solve_linear(ident, [7, 0, 3, 19], gf) == [7, 0, 3, 19]
    assert solve_linear(ident, [0, 0, 0, 0], gf) == [0, 0, 0, 0]


def test_solve_linear_round_trip_random():
    gf = GF2M(4)
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(2, 6)
        # random full-rank matrix: product of unit lower and upper triangular
        mat = matmul(*full_rank_factors(rng, n, n, n, 16), n, gf)
        x = [rng.randrange(16) for _ in range(n)]
        rhs = [0] * n
        for i in range(n):
            for j in range(n):
                rhs[i] ^= gf.mul(mat[i][j], x[j])
        assert solve_linear(mat, rhs, gf) == x


def test_solve_singular_rejected():
    gf = GF2M(4)
    with pytest.raises(ValueError, match="singular"):
        solve_linear([[1, 1], [1, 1]], [1, 0], gf)
    with pytest.raises(ValueError, match="singular"):  # row 3 = 5*row 1 + row 2
        solve_linear([[1, 2, 3], [4, 0, 7], [gf.mul(5, 1) ^ 4, gf.mul(5, 2), gf.mul(5, 3) ^ 7]],
                     [1, 0, 0], gf)


# -- plans ----------------------------------------------------------------------------

# Two SHA-256 digests per code, recorded before repair became a completion
# (at cbce9d1).  The first covers every completion_map, one per size-q
# subset (a singular one recorded as its error), op for op; the second
# every repair plan (the completion of one node from its gamma rows) as its
# sorted op list, since repair now records the same ops in elimination order.
PLAN_FINGERPRINTS = {
    (3, 3, 8, 1): ("ffdecae6450ef9111e2fae183a925026ad1915af9bb0902c25a37604270ca50d",
                   "4772f96fe6038bb01c8bf6cd9d65c4a5bba6a68a6e6885c0e5aa219e1026bfa1"),
    (2, 3, 3, 1): ("a24a05e48824c7c1dc2df82d24fcf00a6d5cf10eaa67776473bb075017f1bbd9",
                   "aea2d56002316a8a3e8b4d03c9d3284ce361be2017940ed0ba144910368887c6"),
    (4, 2, 6, 6): ("e0fd8f048f666d1789c0d1d0cd3422a63d9573527b40619470ca02c29c906098",
                   "d3e8c86136a6b04ff4a6cc97b34358f5c69e9d13629ccb7b1f1135addbc693f5"),
    (3, 2, 4, 7): ("57cae8d687dd018e2dc7830b9bd8349b9d3c3f1eca96a46867acf24eaaf89f5d",
                   "13bb74275e68fec47171ff196770c09f8bcab8eafd29c2e7c8859566e265c5bc"),
}


@pytest.mark.parametrize("q,t,m,c0", list(PLAN_FINGERPRINTS))
def test_plan_fingerprint(q, t, m, c0):
    p = make_params(q, t, m)
    sys_ = build_system(p.with_c0(c0))
    completion, repaired = hashlib.sha256(), hashlib.sha256()
    singular = 0
    for subset in node_subsets(p, p.q):
        try:
            entry = repr(sys_.completion_map(subset))
        except ValueError as err:
            entry = f"ValueError: {err}"
            singular += 1
        completion.update(f"{subset} {entry}\n".encode())
    for node in p.nodes():
        plan = sys_.completion_map((node,), gamma_ordinals(p, node))
        repaired.update(f"{node} {sorted(plan)!r}\n".encode())
    assert (completion.hexdigest(), repaired.hexdigest()) == PLAN_FINGERPRINTS[(q, t, m, c0)]
    assert singular == (3 if c0 == 7 else 0)  # c0 = 7 at (3,2,4) is not MDS


def test_compile_plan_refuses_a_system_that_is_not_square(sys23):
    # the rank alone would pass an overdetermined system of full column rank
    p = sys23.params
    nodes = list(p.nodes())
    with pytest.raises(ValueError, match="cannot solve"):
        sys23.completion_map(nodes[: p.q - 1])
    with pytest.raises(ValueError, match="cannot solve"):
        sys23.inverse_for(nodes[:1], range(p.alpha - 1))
    with pytest.raises(ValueError, match="cannot solve"):  # all 16 constraints, 8 unknowns
        sys23.inverse_for(nodes[:1], range(len(sys23.terms)))


def test_compile_plan_refuses_a_symbol_neither_missing_nor_known(sys23):
    # repair's plan for (1, 0), with helper (3, 1)'s term of the row-parity
    # anchored on row (0, 0, 0) moved to row (1, 0, 0), outside gamma
    p = sys23.params
    helper, moved = p.node_ordinal((3, 1)), row_ordinal(p, (1, 0, 0))
    terms = list(sys23.terms)
    terms[0] = tuple((o, moved if o == helper else r, c) for o, r, c in terms[0])
    tampered = ParityCheckSystem(p, sys23.hmds, terms)
    with pytest.raises(ValueError, match=r"node \(3, 1\)'s symbol on row \(1, 0, 0\)"):
        tampered.completion_map([(1, 0)], gamma_ordinals(p, (1, 0)))


@pytest.mark.parametrize("q,t,m,c0", list(PLAN_FINGERPRINTS))
def test_plans_write_only_output_slots_and_run_plan_reads_inputs_in_place(q, t, m, c0):
    # every plan may write only the output slots that follow the inputs;
    # run_plan leaves its input blocks as they were, and on a block its
    # plane XORs compute what the scalar runner does on each stripe
    p = make_params(q, t, m)
    sys_ = build_system(p.with_c0(c0))
    cases = []  # (plan, input column count, rows per input column, output rows)
    for subset in node_subsets(p, p.q):
        try:
            cases.append((sys_.completion_map(subset), p.k, p.alpha, p.q * p.alpha))
        except ValueError:  # a singular H_S has no plan
            pass
    cases += [(sys_.completion_map((node,), gamma_ordinals(p, node)), p.d, p.beta, p.alpha)
              for node in p.nodes()]
    rng = random.Random(m)
    for plan, count, rows, n_out in cases:
        n_in = count * rows
        assert all(n_in <= dst < n_in + n_out and src < n_in + n_out for dst, _, src in plan)
        inputs = [random_block(p, rng, 5, rows) for _ in range(count)]
        before = [list(col.planes) for col in inputs]
        out = run_plan(plan, inputs, n_out, p.gf)
        assert (out.m, out.rows, out.stripes) == (m, n_out, 5)
        assert [col.planes for col in inputs] == before
        for s in range(5):
            assert column_at(out, s) == \
                run_plan(plan, [column_at(col, s) for col in inputs], n_out, p.gf)


# the coefficients each field is run with: all of a small field, sampled
# ones of a large; and for each coefficient c one plan with every kind of
# op (an XOR, a scaled XOR, an in-place scale, then reads of the scaled
# slot), built once and run in every field that holds c
FIELD_COEFFS = {m: range(1 << m) if m <= 3 else
                [0, 1, 2, (1 << m) - 1, *random.Random(m).sample(range(1 << m), 8)]
                for m in (1, 2, 3, 8, 16)}
ALL_OPS_PLANS = {c: [(2, 1, 0), (2, c, 1), (2, c, 2), (3, c, 2), (3, 1, 3), (2, 1, 3)]
                 for coeffs in FIELD_COEFFS.values() for c in coeffs}


@pytest.mark.parametrize("m", list(FIELD_COEFFS))
def test_block_runner_is_the_plan_in_any_field(m):
    # on a block, the plan gives the scalar results on each stripe; the
    # plans of 0 and 1 run in all five fields, so a plan holds no state of
    # the field it last ran in
    gf = GF2M(m)
    rng = random.Random(m)
    for c in FIELD_COEFFS[m]:
        plan = ALL_OPS_PLANS[c]
        rows = [[rng.randrange(gf.order) for _ in range(11)] for _ in range(2)]
        inputs = [Block(m, 11, [sum((v >> b & 1) << s for s, v in enumerate(row))
                                for b in range(m)]) for row in rows]
        out = run_plan(plan, inputs, 2, gf)
        for s in range(11):
            assert column_at(out, s) == run_plan(plan, [[row[s]] for row in rows], 2, gf)


def test_bit_pairs_are_the_bit_matrix_of_the_coefficient():
    gf = GF2M(5)
    for c in range(gf.order):
        for x in range(gf.order):
            product = 0
            for r, i in gf.bit_pairs(c):
                product ^= (x >> i & 1) << r
            assert product == gf.mul(c, x)
    assert gf.bit_pairs(1) == tuple((i, i) for i in range(5)) and gf.bit_pairs(0) == ()


# -- MDS checks and the c0 search --------------------------------------------------


def test_full_rank_at_c_zero(sys22, sys23):
    # with no shifted entries the Kronecker structure already makes every
    # size-q thick submatrix full rank
    for sys_ in (sys22, sys23):
        assert check_mds_ranks(kronecker_system(sys_)) == []


def test_found_c0_regression_constants():
    for (q, t, m), expected in FOUND_C0.items():
        assert find_code(q, t, m).c0 == expected


def test_found_systems_pass_all_subset_ranks(all_systems):
    for sys_ in all_systems:
        assert check_mds_ranks(sys_) == []


def test_bad_c0_fails_rank_checks():
    for (q, t, m), bad in BAD_C0.items():
        assert check_mds_ranks(build_system(make_params(q, t, m).with_c0(bad)))


def test_find_c0_exhaustion_raises():
    # every nonzero candidate in GF(2^3) fails for (q=3, t=2)
    with pytest.raises(NoValidC0, match="larger field"):
        valid_c0s(make_params(3, 2, 3))[0]
    with pytest.raises(NoValidC0, match="larger field"):
        find_code(3, 2, 3)


def test_find_code_escalates_m():
    params = find_code(3, 2)
    assert params.gf.m == 4
    assert params.c0 == FOUND_C0[(3, 2, 4)]


def test_find_code_q4_t2_picks_m6_c0_6():
    # the code the certify benchmark initialises: m=4 and m=5 are exhausted
    params = find_code(4, 2)
    assert (params.gf.m, params.c0) == (6, 6)


def test_find_code_q3_t3_and_q3_t4():
    assert [(p.gf.m, p.c0) for p in (find_code(3, 3), find_code(3, 4))] == [(5, 1), (6, 8)]


def test_valid_c0s_at_m8():
    # beyond the m <= 7 fields of the rank-check oracle: (4,3)'s field, and
    # the (3,3,8) code the ingest benchmark initialises, whose blocks reach
    # sizes 6, 8 and 12
    assert valid_c0s(make_params(4, 3, 8)) == (28, 35, 41, 54, 59, 71, 141, 150, 165, 174, 186,
                                               221, 231)
    assert len(valid_c0s(make_params(3, 3, 8))) == 203


@pytest.mark.parametrize("q,t,m,last_c", [
    pytest.param(q, t, m, last_c, id=f"{q}-{t}-{m}" + ("" if last_c is None else f"-to-{last_c}"))
    for q, t, m, last_c in [
        (2, 2, 3, None), (2, 3, 3, None), (3, 2, 3, None), (3, 2, 4, None),  # find_code's fields
        (3, 3, 4, None), (4, 2, 4, None), (4, 2, 5, None),  # the fields (3,3) and (4,2) exhaust
        (3, 3, 5, 1), (4, 2, 6, 6),  # the fields they settle on, up to c0
        (2, 2, 5, None), (2, 3, 7, None),
    ]])
def test_block_check_is_the_full_rank_check(q, t, m, last_c):
    # the c the search forbids for a subset, from the blocks of I + c*M_S and
    # their characteristic polynomials, are exactly the c at which the whole
    # H_S loses rank; so the search's valid c0s are the c at which every H_S
    # is full rank
    p = make_params(q, t, m)
    unit = build_system(p.with_c0(1))
    subsets = list(node_subsets(p, q))
    nonzero = range(1, p.gf.order)
    forbids = [set().union(*(forbidden_c(b, p.gf, nonzero) for b in shift_blocks(unit, s)))
               for s in subsets]
    valid = []
    for c in range(1, (last_c or p.gf.order - 1) + 1):
        sys_ = build_system(p.with_c0(c))
        full = [gf_rank(sys_.thick_rows(s), p.gf) == q * p.alpha for s in subsets]
        assert [c not in f for f in forbids] == full, c
        if all(full):
            valid.append(c)
    if last_c is not None:
        assert valid == [last_c] == [valid_c0s(p)[0]]
    elif valid:
        assert valid_c0s(p) == tuple(valid)
    else:
        with pytest.raises(NoValidC0):
            valid_c0s(p)


def block_is_singular(rows, c, gf):
    """Oracle: whether I + c*B is singular, by dense elimination."""
    mat = [[gf.mul(c, x) ^ (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return dense_rank(mat, gf) < len(rows)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_forbidden_c_are_the_singular_c(data):
    # any block, not only a strongly connected one: its characteristic
    # polynomial, evaluated at the candidates, gives every c among them with
    # det(I + c*B) = 0, and only those
    m = data.draw(st.sampled_from([3, 6, 8, 11]), label="m")
    gf = GF2M(m)
    size = data.draw(st.integers(1, 12), label="size")
    zero = data.draw(st.floats(0, 0.9), label="share of zeros")
    rnd = data.draw(st.randoms(use_true_random=False))
    rows = [[0 if rnd.random() < zero else rnd.randrange(1, gf.order) for _ in range(size)]
            for _ in range(size)]
    block = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)
    nonzero = range(1, gf.order)
    singular = {c for c in nonzero if block_is_singular(rows, c, gf)}
    assert forbidden_c(block, gf, nonzero) == singular
    live = set(rnd.sample(nonzero, rnd.randrange(gf.order)))
    assert forbidden_c(block, gf, live) == singular & live


def test_forbidden_c_of_every_2x2_block():
    # the closed form for [[0, a], [b, 0]] and the polynomial path for the
    # other patterns, against every 2 x 2 block over GF(2^3), over all
    # nonzero c and over a random subset of them
    gf = GF2M(3)
    rnd = random.Random(3)
    for rows in itertools.product(itertools.product(range(8), repeat=2), repeat=2):
        block = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)
        singular = {c for c in range(1, 8) if block_is_singular(rows, c, gf)}
        assert forbidden_c(block, gf, range(1, 8)) == singular, rows
        live = set(rnd.sample(range(1, 8), rnd.randrange(8)))
        assert forbidden_c(block, gf, live) == singular & live, (rows, live)


def test_find_c0_reads_no_thick_submatrix(monkeypatch):
    # the search has no fallback to the whole H_S and makes no rank check:
    # the forbidden set comes from the blocks' characteristic polynomials
    def refuse(self, nodes):
        raise AssertionError("the c0 search read a thick submatrix")

    calls = []
    rank = parity.gf_rank
    monkeypatch.setattr(ParityCheckSystem, "thick_rows", refuse)
    monkeypatch.setattr(parity, "gf_rank", lambda mat, gf: calls.append(1) or rank(mat, gf))
    valid_c0s.cache_clear()
    for (q, t, m), expected in FOUND_C0.items():
        assert find_code(q, t, m).c0 == expected
    assert valid_c0s(make_params(4, 2, 6))[0] == 6
    assert len(calls) == 0


def test_find_code_fixed_m():
    params = find_code(2, 2, 5)
    assert params.c0 == FOUND_C0[(2, 2, 5)]


def test_subset_cap_refuses_instead_of_sampling(monkeypatch):
    p = make_params(2, 3, 7)
    monkeypatch.setattr(parity, "MAX_SUBSET_CHECKS", 3)
    with pytest.raises(ValueError, match="refusing"):
        list(node_subsets(p, p.q))


def test_find_code_refuses_an_oversized_code_before_building_it(monkeypatch):
    # (10, 4) has comb(40, 10) size-q subsets: the cap ends the search in the
    # first field, with no system built and no larger field tried
    def refuse(params):
        raise AssertionError("built a system for a code over the cap")

    made = []
    new = CodeParams.__new__
    monkeypatch.setattr(parity, "build_system", refuse)
    monkeypatch.setattr(CodeParams, "__new__",
                        staticmethod(lambda cls, *a, **kw: made.append(a) or new(cls, *a, **kw)))
    with pytest.raises(ValueError, match="exhaustive-check cap"):
        find_code(10, 4)
    assert len(made) <= 1


def test_build_system_validates_c0_range(sys22):
    with pytest.raises(ValueError):
        build_system(sys22.params.with_c0(32))


def test_build_system_needs_c0():
    with pytest.raises(ValueError, match="no valid c0"):
        build_system(make_params(2, 2, 5))


def test_build_system_refuses_a_code_over_the_size_cap(monkeypatch):
    # the cap counts q^(t+1) constraints of at most n + t terms each
    p = make_params(2, 3, 7).with_c0(1)
    bound = 2**4 * (6 + 3)
    assert sum(map(len, build_system(p).terms)) <= bound
    monkeypatch.setattr(parity, "MAX_TERMS", bound)
    build_system(p)
    monkeypatch.setattr(parity, "MAX_TERMS", bound - 1)
    with pytest.raises(ValueError, match=f"needs {bound} parity-check terms, over the size cap"):
        build_system(p)
