"""Encode/decode: constraint satisfaction, linearity, any-k round trips,
and the batched numpy paths checked against the term-list oracle."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import BAD_C0, eval_constraints, stripe_array
from msrcode import build_system, decode_from_k, encode, make_params, verify_mds
from msrcode.codec import complete_columns_batch, decode_batch, encode_batch
from msrcode.parity import check_mds_ranks, gf_rank
from msrcode.repair import repair_batch


def random_message(params, rng):
    return [rng.randrange(params.gf.order) for _ in range(params.message_len)]


def zero_codeword(params):
    return {nd: [0] * params.alpha for nd in params.nodes()}


# -- encode -----------------------------------------------------------------------


def test_zero_message_encodes_to_zero(sys22):
    assert encode([0] * sys22.params.message_len, sys22) == zero_codeword(sys22.params)


def test_encode_satisfies_every_constraint(sys22, sys23):
    rng = random.Random(5)
    for sys_ in (sys22, sys23):
        codeword = encode(random_message(sys_.params, rng), sys_)
        assert list(codeword) == list(sys_.params.nodes())
        assert all(len(col) == sys_.params.alpha for col in codeword.values())
        assert eval_constraints(codeword, sys_) == [0] * sys_.n_constraints


def test_encode_is_systematic(sys23):
    p = sys23.params
    rng = random.Random(6)
    msg = random_message(p, rng)
    codeword = encode(msg, sys23)
    for o, node in enumerate(p.systematic_nodes()):
        assert codeword[node] == msg[o * p.alpha : (o + 1) * p.alpha]


def test_encode_linearity(sys22):
    p = sys22.params
    gf = p.gf
    rng = random.Random(7)
    for _ in range(50):
        m1 = random_message(p, rng)
        m2 = random_message(p, rng)
        a = rng.randrange(1, gf.order)
        combo = [gf.mul(a, x) ^ y for x, y in zip(m1, m2)]
        e1 = encode(m1, sys22)
        e2 = encode(m2, sys22)
        ec = encode(combo, sys22)
        for nd in p.nodes():
            assert ec[nd] == [gf.mul(a, x) ^ y for x, y in zip(e1[nd], e2[nd])]


def test_encode_rejects_bad_input(sys22):
    with pytest.raises(ValueError):
        encode([0] * 7, sys22)
    with pytest.raises(ValueError):
        encode([0] * (sys22.params.message_len - 1) + [32], sys22)  # not in GF(2^5)
    plain = build_system(sys22.params, 0)
    with pytest.raises(ValueError):
        encode([0] * sys22.params.message_len, plain)


def test_encode_is_one_stripe_of_encode_batch(all_systems):
    # the scalar and batch encoders return the same {node: column} codeword
    rng = np.random.default_rng(4)
    for sys_ in all_systems:
        p = sys_.params
        msgs = rng.integers(0, p.gf.order, size=(p.message_len, 3)).astype(np.uint16)
        columns = encode_batch(msgs, sys_)
        for s in range(msgs.shape[1]):
            assert encode(msgs[:, s].tolist(), sys_) == stripe_array(columns, s, p)


# -- the constraint oracle -------------------------------------------------------------


def test_all_zero_array_is_codeword(sys22):
    assert eval_constraints(zero_codeword(sys22.params), sys22) == [0] * sys22.n_constraints


def test_single_perturbation_detected(sys22, sys23):
    rng = random.Random(8)
    for sys_ in (sys22, sys23):
        p = sys_.params
        codeword = encode(random_message(p, rng), sys_)
        for _ in range(50):
            row = rng.randrange(p.alpha)
            node = p.node_at(rng.randrange(p.n))
            delta = rng.randrange(1, p.gf.order)
            codeword[node][row] ^= delta
            # at least one constraint contains the perturbed symbol with a
            # nonzero coefficient, so some residual must be nonzero
            assert any(eval_constraints(codeword, sys_))
            codeword[node][row] ^= delta
            assert not any(eval_constraints(codeword, sys_))


# -- decode ---------------------------------------------------------------------------


def test_decode_from_systematic_nodes_direct(sys23):
    p = sys23.params
    rng = random.Random(9)
    msg = random_message(p, rng)
    codeword = encode(msg, sys23)
    available = {nd: codeword[nd] for nd in p.systematic_nodes()}
    assert decode_from_k(available, sys23) == msg


def test_decode_every_k_subset(sys23):
    p = sys23.params
    rng = random.Random(10)
    msg = random_message(p, rng)
    codeword = encode(msg, sys23)
    subsets = list(itertools.combinations(p.nodes(), p.k))
    assert len(subsets) == 15
    for subset in subsets:
        available = {nd: codeword[nd] for nd in subset}
        assert decode_from_k(available, sys23) == msg


def test_decode_zero_codeword(sys22):
    p = sys22.params
    zero = zero_codeword(p)
    for subset in itertools.combinations(p.nodes(), p.k):
        assert decode_from_k({nd: zero[nd] for nd in subset}, sys22) == [0] * p.message_len


def test_decode_wrong_node_count(sys22):
    p = sys22.params
    zero = zero_codeword(p)
    nodes = list(p.nodes())
    with pytest.raises(ValueError):
        decode_from_k({nd: zero[nd] for nd in nodes[: p.k - 1]}, sys22)
    with pytest.raises(ValueError):
        decode_from_k({nd: zero[nd] for nd in nodes[: p.k + 1]}, sys22)


def test_decode_wrong_column_length(sys22):
    p = sys22.params
    nodes = list(p.nodes())[: p.k]
    with pytest.raises(ValueError):
        decode_from_k({nd: [0] * (p.alpha - 1) for nd in nodes}, sys22)


def test_code_dimension_is_message_len(all_systems):
    # rank of the full flattened matrix = number of constraints, so the
    # kernel (the code) has dimension n*alpha - q^(t+1) = k*alpha
    for sys_ in all_systems:
        p = sys_.params
        rank = gf_rank(sys_.flatten(), p.gf)
        assert rank == p.q ** (p.t + 1)
        assert p.n * p.alpha - rank == p.message_len


# -- verify_mds -------------------------------------------------------------------------


def test_verify_mds_clean(sys22):
    report = verify_mds(sys22, trials=10)
    assert report.subset_count == 6
    assert report.trials == 10
    assert report.ok and report.failures == []


def test_verify_mds_zero_trials(sys22):
    report = verify_mds(sys22, trials=0)
    assert report.ok


def test_verify_mds_catches_bad_c0():
    q, t, m = 2, 2, 5
    bad_sys = build_system(make_params(q, t, m), BAD_C0[(q, t, m)])
    report = verify_mds(bad_sys, trials=4)
    assert not report.ok


@pytest.mark.parametrize("trials", [0, 2])
def test_verify_mds_deficient_is_the_rank_check(all_systems, trials):
    # verify_mds eliminates each subset once; what it finds singular must be
    # exactly what the separate rank pass finds, in the same order
    # c0=7 at (3,2,4) leaves three singular subsets; c0=24 at (2,2,5) makes
    # the parity nodes' own H_S singular, so nothing encodes
    for (q, t, m), bad in [*BAD_C0.items(), ((3, 2, 4), 7), ((2, 2, 5), 24)]:
        bad_sys = build_system(make_params(q, t, m), bad)
        report = verify_mds(bad_sys, trials=trials)
        assert report.deficient == check_mds_ranks(bad_sys) != []
        assert not report.ok
        # every round trip fails when the encoder's subset is singular, else
        # exactly those through a singular subset
        failing = report.subset_count if bad_sys.params.parity_nodes() in report.deficient \
            else len(report.deficient)
        assert len(report.failures) == failing * trials
    for sys_ in all_systems:
        report = verify_mds(sys_, trials=trials)
        assert report.deficient == [] and report.ok


# -- batched paths ------------------------------------------------------------------------


def test_encode_batch_satisfies_constraints(sys22, sys23):
    rng = np.random.default_rng(11)
    for sys_ in (sys22, sys23):
        p = sys_.params
        msgs = rng.integers(0, p.gf.order, size=(p.message_len, 20)).astype(np.uint16)
        columns = encode_batch(msgs, sys_)
        for s in range(msgs.shape[1]):
            codeword = stripe_array(columns, s, p)
            assert eval_constraints(codeword, sys_) == [0] * sys_.n_constraints
            systematic = [v for nd in p.systematic_nodes() for v in codeword[nd]]
            assert systematic == msgs[:, s].tolist()


def test_decode_batch_every_subset(sys23):
    p = sys23.params
    rng = np.random.default_rng(12)
    msgs = rng.integers(0, p.gf.order, size=(p.message_len, 17)).astype(np.uint16)
    columns = encode_batch(msgs, sys23)
    for subset in itertools.combinations(p.nodes(), p.k):
        got = decode_batch({nd: columns[nd] for nd in subset}, sys23)
        assert np.array_equal(got, msgs)


def test_batch_zero_stripes(sys22):
    p = sys22.params
    columns = encode_batch(np.zeros((p.message_len, 0), dtype=np.uint16), sys22)
    assert all(c.shape == (p.alpha, 0) for c in columns.values())
    got = decode_batch({nd: columns[nd] for nd in list(p.nodes())[: p.k]}, sys22)
    assert got.shape == (p.message_len, 0)


def test_complete_columns_batch_validates_known_set(sys22):
    p = sys22.params
    nodes = list(p.nodes())
    known = {nodes[0]: np.zeros((p.alpha, 3), dtype=np.uint16)}
    with pytest.raises(ValueError):
        complete_columns_batch(sys22, known, p.parity_nodes())


def test_encode_batch_shape_validation(sys22):
    with pytest.raises(ValueError):
        encode_batch(np.zeros((5, 4), dtype=np.uint16), sys22)
    with pytest.raises(ValueError):  # a (stripes, k*alpha) stack is the wrong way round
        encode_batch(np.zeros((4, sys22.params.message_len), dtype=np.uint16), sys22)


def test_decode_batch_rank_deficient_subset_raises():
    q, t, m = 2, 2, 5
    bad_sys = build_system(make_params(q, t, m), BAD_C0[(q, t, m)])
    p = bad_sys.params
    lost = next(s for s in check_mds_ranks(bad_sys) if set(s) & set(p.systematic_nodes()))
    available = {nd: np.zeros((p.alpha, 3), dtype=np.uint16)
                 for nd in p.nodes() if nd not in lost}
    with pytest.raises(ValueError):
        decode_batch(available, bad_sys)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_paths_property(all_systems, data):
    sys_ = data.draw(st.sampled_from(all_systems))
    p = sys_.params
    stripes = data.draw(st.integers(0, 7))
    msgs = data.draw(arrays(np.uint16, (p.message_len, stripes),
                            elements=st.integers(0, p.gf.order - 1)))
    subset = data.draw(st.sampled_from(list(itertools.combinations(p.nodes(), p.k))))
    columns = encode_batch(msgs, sys_)
    assert np.array_equal(decode_batch({nd: columns[nd] for nd in subset}, sys_), msgs)
    for failed in p.nodes():
        gamma_idx = [p.row_ordinal(r) for r in p.gamma_rows(failed)]
        helpers = {h: columns[h][gamma_idx] for h in p.nodes() if h != failed}
        assert np.array_equal(repair_batch(failed, helpers, sys_), columns[failed])
    for s in range(stripes):
        picked = {nd: [int(v) for v in columns[nd][:, s]] for nd in subset}
        assert decode_from_k(picked, sys_) == msgs[:, s].tolist()
