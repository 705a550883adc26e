"""Encode/decode: constraint satisfaction, linearity, any-k round trips,
and the batched Block paths checked against the term-list oracle."""

import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BAD_C0, column_at, eval_constraints, gamma_ordinals, random_block, rows_of,
                      stripe_array, to_block)
from msrcode import (build_system, codec, decode_from_k, encode, find_code, make_params,
                     verify_mds)
from msrcode.codec import MdsReport, complete_columns, decode_batch, encode_batch
from msrcode.gf import Block
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
        assert eval_constraints(codeword, sys_) == [0] * len(sys_.terms)


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
    with pytest.raises(ValueError, match="no valid c0"):  # an unsearched code has no system
        encode([0] * sys22.params.message_len, build_system(make_params(2, 2, 5)))


def test_encode_is_one_stripe_of_encode_batch(all_systems):
    # the scalar and batch encoders return the same {node: column} codeword
    rng = random.Random(4)
    for sys_ in all_systems:
        p = sys_.params
        msgs = random_block(p, rng, 3)
        columns = encode_batch(msgs, sys_)
        for s in range(msgs.stripes):
            assert encode(column_at(msgs, s), sys_) == stripe_array(columns, s, p)


# -- the constraint oracle -------------------------------------------------------------


def test_all_zero_array_is_codeword(sys22):
    assert eval_constraints(zero_codeword(sys22.params), sys22) == [0] * len(sys22.terms)


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
    # rank of H (its sparse rows over all nodes) = number of constraints,
    # so the kernel (the code) has dimension n*alpha - q^(t+1) = k*alpha
    for sys_ in all_systems:
        p = sys_.params
        rank = gf_rank(sys_.thick_rows(p.nodes()), p.gf)
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
    # each report gets its own lists, and reports are equal by value
    assert report == MdsReport(6, 0) == MdsReport(subset_count=6, trials=0, failures=[])
    a, b = MdsReport(6, 0), MdsReport(6, 0)
    assert a.failures is not b.failures and a.deficient is not b.deficient
    a.deficient.append(((1, 0), (1, 1)))
    assert b.deficient == [] and a != b


def test_verify_mds_catches_bad_c0():
    q, t, m = 2, 2, 5
    bad_sys = build_system(make_params(q, t, m).with_c0(BAD_C0[(q, t, m)]))
    report = verify_mds(bad_sys, trials=4)
    assert not report.ok


@pytest.mark.parametrize("trials", [0, 2])
def test_verify_mds_deficient_is_the_rank_check(all_systems, trials):
    # verify_mds eliminates each subset once; what it finds singular must be
    # exactly what the separate rank pass finds, in the same order
    # c0=7 at (3,2,4) leaves three singular subsets; c0=24 at (2,2,5) makes
    # the parity nodes' own H_S singular, so nothing encodes
    for (q, t, m), bad in [*BAD_C0.items(), ((3, 2, 4), 7), ((2, 2, 5), 24)]:
        bad_sys = build_system(make_params(q, t, m).with_c0(bad))
        report = verify_mds(bad_sys, trials=trials)
        assert report.deficient == check_mds_ranks(bad_sys) != []
        assert not report.ok
        # every round trip fails when the encoder's subset is singular, else
        # exactly those through a singular subset
        p = bad_sys.params
        failing = report.subset_count if tuple(p.nodes())[p.k:] in report.deficient \
            else len(report.deficient)
        assert len(report.failures) == failing * trials
    for sys_ in all_systems:
        report = verify_mds(sys_, trials=trials)
        assert report.deficient == [] and report.ok


# -- verify's workers -----------------------------------------------------------------


# a valid (4,2,6) code; test_verify_mds_catches_bad_c0's c0; c0 = 24 at (2,2,5),
# where the parity nodes' H_S is singular, so nothing encodes
WORKER_CODES = [(4, 2, 6, 6), (2, 2, 5, BAD_C0[(2, 2, 5)]), (2, 2, 5, 24)]


@pytest.mark.parametrize("trials", [0, 3])
@pytest.mark.parametrize("q, t, m, c0", WORKER_CODES)
def test_workers_report_what_one_process_reports(forking, q, t, m, c0, trials):
    sys_ = build_system(make_params(q, t, m).with_c0(c0))
    forking(1)
    serial = verify_mds(sys_, trials)
    assert serial.ok == ((q, t, m) == (4, 2, 6))
    for workers in (2, 3):
        forks = forking(workers)
        forks.clear()
        sys_._last = None  # as a fresh command has it: no plan compiled yet
        assert verify_mds(sys_, trials) == serial
        assert len(forks) == workers - 1
        with pytest.raises(ChildProcessError):  # every child is reaped
            os.waitpid(-1, os.WNOHANG)


def test_verify_without_fork_is_the_serial_loop(forking, monkeypatch, sys32):
    forks = forking(3)
    monkeypatch.delattr(os, "fork")
    report = verify_mds(sys32, 2)
    assert report.ok and report.subset_count == 20 and forks == []


def test_a_clean_child_s_results_are_fresh_lists(forking):
    forks = forking(2)
    results = codec._forked_map(lambda x: [], list(range(4)))
    assert results == [[]] * 4 and len(set(map(id, results))) == 4 and len(forks) == 1


def test_usable_cpus_without_affinity_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert codec._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert codec._usable_cpus() == 1


def test_an_interrupted_verify_leaves_no_worker(forking, monkeypatch):
    # the parent's own slice raises KeyboardInterrupt: the children still
    # running are killed and reaped, and the interrupt propagates
    sys_ = build_system(make_params(4, 2, 6).with_c0(6))
    forks = forking(3)
    parent, real_decode = os.getpid(), codec.decode_from_k

    def decode_from_k(available, sys_):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_decode(available, sys_)

    monkeypatch.setattr(codec, "decode_from_k", decode_from_k)
    with pytest.raises(KeyboardInterrupt):
        verify_mds(sys_, 3)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- batched paths ------------------------------------------------------------------------


def test_encode_batch_satisfies_constraints(sys22, sys23):
    rng = random.Random(11)
    for sys_ in (sys22, sys23):
        p = sys_.params
        msgs = random_block(p, rng, 20)
        columns = encode_batch(msgs, sys_)
        for s in range(msgs.stripes):
            codeword = stripe_array(columns, s, p)
            assert eval_constraints(codeword, sys_) == [0] * len(sys_.terms)
            systematic = [v for nd in p.systematic_nodes() for v in codeword[nd]]
            assert systematic == column_at(msgs, s)


def test_decode_batch_every_subset(sys23):
    p = sys23.params
    msgs = random_block(p, random.Random(12), 17)
    columns = encode_batch(msgs, sys23)
    for subset in itertools.combinations(p.nodes(), p.k):
        assert decode_batch({nd: columns[nd] for nd in subset}, sys23) == msgs


def test_batch_zero_stripes(sys22):
    p = sys22.params
    columns = encode_batch(random_block(p, random.Random(0), 0), sys22)
    assert all((c.rows, c.stripes) == (p.alpha, 0) for c in columns.values())
    got = decode_batch({nd: columns[nd] for nd in list(p.nodes())[: p.k]}, sys22)
    assert (got.rows, got.stripes) == (p.message_len, 0)


def test_complete_columns_validates_known_set(sys22):
    # one completion serves a stripe (lists of ints) and a block (Blocks)
    p = sys22.params
    nodes = list(p.nodes())
    for zero in ([0] * p.alpha, Block(p.gf.m, 3, [0] * (p.alpha * p.gf.m))):
        with pytest.raises(ValueError):  # fewer than k known columns
            complete_columns(sys22, {nodes[0]: zero}, nodes[p.k:])
        with pytest.raises(ValueError):  # k columns, one of them foreign
            complete_columns(sys22, {nodes[0]: zero, (9, 9): zero}, nodes[p.k:])
        known = {nd: zero for nd in p.systematic_nodes()}
        assert complete_columns(sys22, known, p.systematic_nodes()) == known


@pytest.mark.parametrize("entry", ["encode", "decode_from_k", "encode_batch", "encode_batch -1",
                                   "decode_batch systematic", "decode_batch", "repair_batch"])
def test_out_of_field_symbol_rejected(entry):
    # GF(2^3) has 8 elements; every entry point refuses a symbol outside it.
    # A Block holds m-bit symbols only, so on the batch paths such a symbol
    # comes in a block of a wider field, or in planes with bits outside
    # their stripes (as -1 has)
    sys_ = build_system(find_code(2, 2, 3))
    p = sys_.params
    nodes = list(p.nodes())
    stacks = encode_batch(random_block(p, random.Random(0), 4), sys_)
    wide = rows_of(stacks[nodes[1]])
    wide[0][2] = 200
    stacks[nodes[1]] = to_block(wide, 8)
    with pytest.raises(ValueError, match="not an element of GF"):
        if entry == "encode":
            encode([0] * (p.message_len - 1) + [40], sys_)
        elif entry == "decode_from_k":
            decode_from_k({nd: [0] * (p.alpha - 1) + [9] for nd in nodes[: p.k]}, sys_)
        elif entry == "encode_batch":
            encode_batch(to_block([[40] * 3] * p.message_len, 6), sys_)
        elif entry == "encode_batch -1":
            encode_batch(Block(p.gf.m, 3, [-1] * (p.message_len * p.gf.m)), sys_)
        elif entry == "decode_batch systematic":
            decode_batch({nd: stacks[nd] for nd in p.systematic_nodes()}, sys_)
        elif entry == "decode_batch":
            decode_batch({nd: stacks[nd] for nd in nodes[1 : p.k + 1]}, sys_)
        else:
            helpers = {nd: to_block([[9] * 3] * p.beta, 4) for nd in nodes[1:]}
            repair_batch(nodes[0], helpers, sys_)


@pytest.mark.parametrize("bad", [-1, 8])
def test_scalar_symbol_check_names_the_first_symbol_outside_the_field(bad):
    # each column is checked by its min and max; the error names the first
    # bad symbol in column order, as a check of every symbol would
    sys_ = build_system(find_code(2, 2, 3))
    message = [0] * sys_.params.message_len
    message[3], message[-1] = bad, 100
    with pytest.raises(ValueError, match=rf"^{bad} is not an element of GF\(2\^3\)$"):
        encode(message, sys_)


def test_encode_batch_shape_validation(sys22):
    p = sys22.params
    with pytest.raises(ValueError):
        encode_batch(Block(p.gf.m, 4, [0] * (5 * p.gf.m)), sys22)
    with pytest.raises(ValueError):  # a (stripes, k*alpha) block is the wrong way round
        encode_batch(Block(p.gf.m, p.message_len, [0] * (4 * p.gf.m)), sys22)


def test_decode_batch_rank_deficient_subset_raises():
    q, t, m = 2, 2, 5
    bad_sys = build_system(make_params(q, t, m).with_c0(BAD_C0[(q, t, m)]))
    p = bad_sys.params
    lost = next(s for s in check_mds_ranks(bad_sys) if set(s) & set(p.systematic_nodes()))
    available = {nd: Block(p.gf.m, 8, [0] * (p.alpha * p.gf.m))
                 for nd in p.nodes() if nd not in lost}
    with pytest.raises(ValueError):
        decode_batch(available, bad_sys)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_paths_property(all_systems, data):
    sys_ = data.draw(st.sampled_from(all_systems))
    p = sys_.params
    stripes = data.draw(st.integers(0, 7))
    symbols = st.lists(st.integers(0, p.gf.order - 1), min_size=stripes, max_size=stripes)
    msgs = to_block(data.draw(st.lists(symbols, min_size=p.message_len,
                                       max_size=p.message_len)), p.gf.m, stripes)
    subset = data.draw(st.sampled_from(list(itertools.combinations(p.nodes(), p.k))))
    columns = encode_batch(msgs, sys_)
    assert decode_batch({nd: columns[nd] for nd in subset}, sys_) == msgs
    for failed in p.nodes():
        gamma_idx = gamma_ordinals(p, failed)
        helpers = {h: columns[h].take(gamma_idx) for h in p.nodes() if h != failed}
        assert repair_batch(failed, helpers, sys_) == columns[failed]
    for s in range(stripes):
        picked = {nd: column_at(columns[nd], s) for nd in subset}
        assert decode_from_k(picked, sys_) == column_at(msgs, s)
