"""Single-node repair on the block path: exactness for every node, strict
helper validation, verbatim help-by-transfer, coverage, and bandwidth
accounting."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import random

import pytest

import msrcode
from conftest import (eval_constraints, gamma_ordinals, gamma_rows, kronecker_system,
                      random_block, row_ordinal, rows_of, run_ordinals, stripe_array, system_for)
from msrcode import build_system, make_params
from msrcode.codec import complete_columns, decode_batch, encode_batch
from msrcode.gf import Block
from msrcode.repair import repair_batch


def helper_rows(columns, failed, params):
    """What each helper sends: its stored (alpha, s) block cut along the
    gamma_runs the CLI reads, a (beta, s) block of rows copied as-is."""
    return {h: Block.stack([columns[h][start : start + length]
                            for start, length in params.gamma_runs(failed)])
            for h in params.nodes() if h != failed}


def zero_columns(params):
    return {nd: Block(params.gf.m, 2, [0] * (params.alpha * params.gf.m))
            for nd in params.nodes()}


# -- the helper rows ------------------------------------------------------------


def test_extract_zero_content(sys23):
    p = sys23.params
    for stack in helper_rows(zero_columns(p), (1, 0), p).values():
        assert (stack.rows, stack.stripes) == (p.beta, 2)
        assert not any(stack.planes)


def test_extract_rows_are_gamma(sys23):
    p = sys23.params
    assert run_ordinals(p.gamma_runs((1, 0))) == gamma_ordinals(p, (1, 0))
    assert all(p.row_at(o)[0] == 0 for o in run_ordinals(p.gamma_runs((1, 0))))


def test_extract_packet_size_all_nodes(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        for failed in p.nodes():
            stacks = helper_rows(zero_columns(p), failed, p)
            assert sorted(stacks) == sorted(h for h in p.nodes() if h != failed)
            assert all((stack.rows, stack.stripes) == (p.beta, 2) for stack in stacks.values())


def test_extract_is_verbatim(sys23):
    p = sys23.params
    columns = encode_batch(random_block(p, random.Random(20), 5), sys23)
    for failed in p.nodes():
        for helper, stack in helper_rows(columns, failed, p).items():
            stored = rows_of(columns[helper])
            for g, row in enumerate(gamma_ordinals(p, failed)):
                assert rows_of(stack)[g] == stored[row]


# -- repair_batch -------------------------------------------------------------------


def test_repair_zero_codeword(sys23):
    p = sys23.params
    columns = zero_columns(p)
    for failed in p.nodes():
        helpers = helper_rows(columns, failed, p)
        assert repair_batch(failed, helpers, sys23) == columns[failed]
        assert sum(stack.rows for stack in helpers.values()) \
            == p.d * p.beta == (p.n - 1) * p.q ** (p.t - 1)


def test_repair_every_node_exact(all_systems):
    rng = random.Random(21)
    for sys_ in all_systems:
        p = sys_.params
        columns = encode_batch(random_block(p, rng, 3), sys_)
        for failed in p.nodes():
            rebuilt = repair_batch(failed, helper_rows(columns, failed, p), sys_)
            assert (rebuilt.rows, rebuilt.stripes) == (p.alpha, 3)
            assert rebuilt == columns[failed]


def test_repair_download_is_msr_optimal(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        helpers = helper_rows(zero_columns(p), (1, 0), p)
        # count actual rows moved, not the formula
        assert sum(stack.rows for stack in helpers.values()) \
            == p.d * (p.alpha // (p.d - p.k + 1))


def test_repair_wrong_packet_count(sys23):
    p = sys23.params
    helpers = helper_rows(zero_columns(p), (1, 0), p)
    del helpers[(3, 1)]
    with pytest.raises(ValueError):
        repair_batch((1, 0), helpers, sys23)


def test_repair_duplicate_helpers(sys23):
    # d stacks, but not one from each of the d helpers: one is keyed by a
    # node outside the code
    p = sys23.params
    helpers = helper_rows(zero_columns(p), (1, 0), p)
    helpers[(9, 0)] = helpers.pop((3, 1))
    with pytest.raises(ValueError):
        repair_batch((1, 0), helpers, sys23)


def test_repair_packet_from_failed_node(sys23):
    p = sys23.params
    helpers = helper_rows(zero_columns(p), (1, 0), p)
    helpers[(1, 0)] = helpers.pop((3, 1))
    with pytest.raises(ValueError):
        repair_batch((1, 0), helpers, sys23)


def test_repair_rejects_system_without_c0(sys23):
    p = sys23.params
    plain = kronecker_system(sys23)
    with pytest.raises(ValueError):
        repair_batch((1, 0), helper_rows(zero_columns(p), (1, 0), p), plain)


def test_repair_coverage_each_row_once(sys23):
    # phase 1 covers the gamma rows, phase 2 the (q-1) shifts of each; the
    # union must be all alpha rows, each exactly once
    p = sys23.params
    for failed in p.nodes():
        i0, theta0 = failed
        gamma = gamma_rows(p, failed)
        written = list(gamma)
        for row in gamma:
            for delta in range(1, p.q):
                target = list(row)
                target[i0 - 1] = (theta0 - delta) % p.q
                written.append(tuple(target))
        assert len(written) == p.alpha
        assert set(written) == set(p.rows())


# -- batch path ---------------------------------------------------------------------


def test_repair_batch_rebuilds_codeword_column(sys22, sys23):
    rng = random.Random(22)
    for sys_ in (sys22, sys23):
        p = sys_.params
        columns = encode_batch(random_block(p, rng, 9), sys_)
        for s in range(9):
            assert eval_constraints(stripe_array(columns, s, p), sys_) == [0] * len(sys_.terms)
        for failed in p.nodes():
            rebuilt = repair_batch(failed, helper_rows(columns, failed, p), sys_)
            assert rebuilt == columns[failed]


def test_repair_plan_is_compiled_once_per_failed_node():
    # a repair runs the same plan on every block; only a new failed node
    # compiles again (a fresh system: the fixtures' memoise earlier tests')
    sys_ = system_for(2, 3, 7)
    p = sys_.params
    columns = encode_batch(random_block(p, random.Random(23), 3), sys_)
    nodes = list(p.nodes())
    with mock.patch.object(sys_, "inverse_for", side_effect=sys_.inverse_for) as spy:
        for failed in (nodes[0], nodes[0], nodes[0], nodes[1], nodes[1], nodes[0]):
            rebuilt = repair_batch(failed, helper_rows(columns, failed, p), sys_)
            assert rebuilt == columns[failed]
    assert [c.args[0] for c in spy.call_args_list] == [(nodes[0],), (nodes[1],), (nodes[0],)]


@pytest.mark.parametrize("q,t,m,c0", [(2, 3, 7, 1), (3, 3, 8, 1)])
def test_one_memo_serves_decode_and_repair_plans(q, t, m, c0):
    # completion_map keeps one plan, keyed by the missing nodes and the sent
    # rows: decode and repair keys, interleaved on one system, each get the
    # plan a fresh system compiles, and a key differing only in its rows is
    # compiled anew (one failed node from every row is not square)
    p = make_params(q, t, m).with_c0(c0)
    sys_ = build_system(p)
    nodes = list(p.nodes())
    keys = []
    for i, failed in enumerate(nodes[:4]):
        keys += [(tuple(nodes[i : i + p.q]), None), ((failed,), gamma_ordinals(p, failed)),
                 ((failed,), gamma_ordinals(p, nodes[i + 1]))]
    for missing, rows in keys:
        try:
            fresh = build_system(p).completion_map(missing, rows)
        except ValueError:
            with pytest.raises(ValueError):
                sys_.completion_map(missing, rows)
            continue
        assert sys_.completion_map(missing, rows) == fresh
    sys_.completion_map(nodes[:1], gamma_ordinals(p, nodes[0]))
    with pytest.raises(ValueError, match="cannot solve"):
        sys_.completion_map(nodes[:1])
    for rows in ([p.alpha - 1, 0], [0, 0], [p.alpha]):  # not ascending row ordinals
        with pytest.raises(ValueError, match="ascending row ordinals"):
            sys_.completion_map(nodes[:1], rows)
    # the batch paths, interleaved on the same system, return exact blocks
    rng = random.Random(q * 10 + t)
    message = random_block(p, rng, 5)
    columns = encode_batch(message, sys_)
    for i, failed in enumerate(nodes):
        kept = {nd: columns[nd] for nd in nodes if nd not in nodes[i : i + p.q]}
        assert decode_batch(dict(list(kept.items())[: p.k]), sys_) == message
        assert repair_batch(failed, helper_rows(columns, failed, p), sys_) == columns[failed]


def test_two_nodes_of_one_class_complete_from_the_union_of_their_gamma_rows():
    # the plan entry is not tied to one failed node: the (n - 2) * 2 * beta
    # symbols on the union R of two same-class nodes' gamma rows determine
    # both, as the constraints anchored on R are square (the cut-set bound)
    p = make_params(3, 3, 8).with_c0(1)
    sys_ = build_system(p)
    columns = encode_batch(random_block(p, random.Random(24), 4), sys_)
    lost = [(2, 0), (2, 2)]
    union = sorted({*gamma_ordinals(p, lost[0]), *gamma_ordinals(p, lost[1])})
    sent = {nd: Block.stack([columns[nd][r : r + 1] for r in union])
            for nd in p.nodes() if nd not in lost}
    assert len(union) == 2 * p.beta
    assert complete_columns(sys_, sent, lost, union) == {nd: columns[nd] for nd in lost}


def test_repair_batch_validates_helpers(sys22):
    p = sys22.params
    def zeros(rows, stripes):
        return Block(p.gf.m, stripes, [0] * (rows * p.gf.m))

    gamma_cols = {h: zeros(p.beta, 2) for h in list(p.nodes())[1:]}
    with pytest.raises(ValueError):
        repair_batch((2, 1), gamma_cols, sys22)  # (2,1) is inside the helper set
    with pytest.raises(ValueError):
        repair_batch((1, 0), dict(list(gamma_cols.items())[:-1]), sys22)
    with pytest.raises(ValueError):  # a whole (alpha, s) block, not the (beta, s) rows
        repair_batch((1, 0), {**gamma_cols, (2, 1): zeros(p.alpha, 2)}, sys22)
    with pytest.raises(ValueError):  # one helper sends 3 stripes, the others 2
        repair_batch((1, 0), {**gamma_cols, (2, 1): zeros(p.beta, 3)}, sys22)


def repair_tampered_under_optimize(node, row):
    """Under `python -O`, repair node (1, 0) at (2,2) with the shifted term
    on `node` of the delta = 1 constraint anchored on row (0, 0) moved to
    `row`, the system built from those tampered triples; the output."""
    moved = row_ordinal(make_params(2, 2, 5), row)
    script = textwrap.dedent(f"""
        from msrcode import ParityCheckSystem, build_system, make_params
        from msrcode.gf import Block
        from msrcode.repair import repair_batch

        p = make_params(2, 2, 5).with_c0(1)
        good = build_system(p)
        failed, node, anchor = (1, 0), p.node_ordinal({node!r}), 0  # anchor row (0, 0)
        terms = list(good.terms)
        idx = p.alpha + anchor  # delta = 1, anchor (0, 0)
        terms[idx] = tuple((o, {moved}, c) if o == node and r != anchor
                           else (o, r, c) for o, r, c in terms[idx])
        sys_ = ParityCheckSystem(p, good.hmds, terms)
        helpers = {{h: Block(p.gf.m, 2, [0] * (p.beta * p.gf.m)) for h in p.nodes() if h != failed}}
        try:
            repair_batch(failed, helpers, sys_)
        except ValueError as err:
            print("ValueError:", err)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(msrcode.__file__).parents[1]))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_tampered_constraint_raises_under_optimize():
    # the shifted term on the failed node points at the wrong row, so the
    # gamma-anchored constraints no longer determine the failed column
    out = repair_tampered_under_optimize((1, 0), (1, 1))
    assert out.startswith("ValueError: "), out


def test_constraint_reading_an_unsent_row_raises_under_optimize():
    # help-by-transfer: a gamma-anchored constraint that reads a helper's
    # row outside gamma (x_1 = 1 for failed (1, 0)) is refused, by name
    out = repair_tampered_under_optimize((2, 0), (1, 1))
    assert out.startswith("ValueError: ") and "node (2, 0)'s symbol on row (1, 1)" in out, out


# -- bandwidth ------------------------------------------------------------------------


def bandwidth(p):
    """(beta, d*beta, k*alpha): per helper, in all, and the naive any-k download."""
    return p.beta, p.d * p.beta, p.message_len


def test_bandwidth_report_q2_t3():
    p = make_params(2, 3, 7)
    assert bandwidth(p) == (4, 20, 32)
    assert p.d * p.beta / p.message_len == 0.625


def test_bandwidth_report_q3_t3():
    p = make_params(3, 3, 8)
    assert bandwidth(p) == (9, 72, 162)
    assert abs(p.d * p.beta / p.message_len - 0.444) < 1e-3
    # beta = alpha / (d-k+1): 9 = 27/3
    assert p.beta == p.alpha // (p.d - p.k + 1) == 9


def test_bandwidth_report_q2_t2():
    assert bandwidth(make_params(2, 2, 5)) == (2, 6, 8)
