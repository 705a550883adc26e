"""Single-node repair on the block path: exactness for every node, strict
helper validation, verbatim help-by-transfer, coverage, and bandwidth
accounting."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import msrcode
from conftest import eval_constraints, stripe_array
from msrcode import bandwidth_report, build_system, make_params
from msrcode.codec import encode_batch
from msrcode.repair import repair_batch
from msrcode.shardio import gamma_runs


def random_block(params, rng, stripes):
    """A random (k*alpha, stripes) message block."""
    return rng.integers(0, params.gf.order, size=(params.message_len, stripes)).astype(np.uint16)


def helper_rows(columns, failed, params):
    """What each helper sends: its stored (alpha, s) stack cut along the
    gamma_runs the CLI reads, a (beta, s) stack of rows copied as-is."""
    return {h: np.concatenate([columns[h][start : start + length]
                               for start, length in gamma_runs(failed, params)])
            for h in params.nodes() if h != failed}


def zero_columns(params):
    return {nd: np.zeros((params.alpha, 2), np.uint16) for nd in params.nodes()}


# -- the helper rows ------------------------------------------------------------


def test_extract_zero_content(sys23):
    p = sys23.params
    for stack in helper_rows(zero_columns(p), (1, 0), p).values():
        assert stack.shape == (p.beta, 2)
        assert not stack.any()


def test_extract_rows_are_gamma(sys23):
    p = sys23.params
    ordinals = [o for start, length in gamma_runs((1, 0), p)
                for o in range(start, start + length)]
    assert ordinals == [p.row_ordinal(r) for r in p.gamma_rows((1, 0))]
    assert all(r[0] == 0 for r in p.gamma_rows((1, 0)))


def test_extract_packet_size_all_nodes(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        for failed in p.nodes():
            stacks = helper_rows(zero_columns(p), failed, p)
            assert sorted(stacks) == sorted(h for h in p.nodes() if h != failed)
            assert all(stack.shape == (p.beta, 2) for stack in stacks.values())


def test_extract_is_verbatim(sys23):
    p = sys23.params
    columns = encode_batch(random_block(p, np.random.default_rng(20), 5), sys23)
    for failed in p.nodes():
        for helper, stack in helper_rows(columns, failed, p).items():
            for g, row in enumerate(p.gamma_rows(failed)):
                assert np.array_equal(stack[g], columns[helper][p.row_ordinal(row)])


# -- repair_batch -------------------------------------------------------------------


def test_repair_zero_codeword(sys23):
    p = sys23.params
    columns = zero_columns(p)
    for failed in p.nodes():
        helpers = helper_rows(columns, failed, p)
        assert np.array_equal(repair_batch(failed, helpers, sys23), columns[failed])
        assert sum(len(stack) for stack in helpers.values()) \
            == p.d * p.beta == (p.n - 1) * p.q ** (p.t - 1)


def test_repair_every_node_exact(all_systems):
    rng = np.random.default_rng(21)
    for sys_ in all_systems:
        p = sys_.params
        columns = encode_batch(random_block(p, rng, 3), sys_)
        for failed in p.nodes():
            rebuilt = repair_batch(failed, helper_rows(columns, failed, p), sys_)
            assert rebuilt.shape == (p.alpha, 3)
            assert np.array_equal(rebuilt, columns[failed])


def test_repair_download_is_msr_optimal(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        helpers = helper_rows(zero_columns(p), (1, 0), p)
        # count actual rows moved, not the formula
        assert sum(len(stack) for stack in helpers.values()) \
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
    plain = build_system(p, 0)
    with pytest.raises(ValueError):
        repair_batch((1, 0), helper_rows(zero_columns(p), (1, 0), p), plain)


def test_repair_coverage_each_row_once(sys23):
    # phase 1 covers the gamma rows, phase 2 the (q-1) shifts of each; the
    # union must be all alpha rows, each exactly once
    p = sys23.params
    for failed in p.nodes():
        i0, theta0 = failed
        gamma = p.gamma_rows(failed)
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
    rng = np.random.default_rng(22)
    for sys_ in (sys22, sys23):
        p = sys_.params
        columns = encode_batch(random_block(p, rng, 9), sys_)
        for s in range(9):
            assert eval_constraints(stripe_array(columns, s, p), sys_) == [0] * sys_.n_constraints
        for failed in p.nodes():
            rebuilt = repair_batch(failed, helper_rows(columns, failed, p), sys_)
            assert np.array_equal(rebuilt, columns[failed])


def test_repair_batch_validates_helpers(sys22):
    p = sys22.params
    gamma_cols = {
        h: np.zeros((p.beta, 2), dtype=np.uint16) for h in list(p.nodes())[1:]
    }
    with pytest.raises(ValueError):
        repair_batch((2, 1), gamma_cols, sys22)  # (2,1) is inside the helper set
    with pytest.raises(ValueError):
        repair_batch((1, 0), dict(list(gamma_cols.items())[:-1]), sys22)
    with pytest.raises(ValueError):  # a whole (alpha, s) stack, not the (beta, s) rows
        repair_batch((1, 0), {**gamma_cols, (2, 1): np.zeros((p.alpha, 2), np.uint16)}, sys22)
    with pytest.raises(ValueError):  # one helper sends 3 stripes, the others 2
        repair_batch((1, 0), {**gamma_cols, (2, 1): np.zeros((p.beta, 3), np.uint16)}, sys22)


def test_tampered_constraint_raises_under_optimize():
    # a delta-parity whose shifted term on the failed node points at the
    # wrong row; the protocol check must survive `python -O`
    script = textwrap.dedent("""
        import dataclasses
        import numpy as np
        from msrcode import build_system, make_params
        from msrcode.repair import repair_batch

        p = make_params(2, 2, 5).with_c0(1)
        sys_ = build_system(p, p.c0)
        failed = (1, 0)
        idx = p.alpha + p.row_ordinal((0, 0))  # delta = 1, anchor (0, 0)
        con = sys_.constraints[idx]
        terms = tuple(
            t._replace(row=(1, 1)) if t.node == failed and t.row != con.anchor else t
            for t in con.terms
        )
        sys_.constraints[idx] = dataclasses.replace(con, terms=terms)
        helpers = {h: np.zeros((p.beta, 2), np.uint16) for h in p.nodes() if h != failed}
        try:
            repair_batch(failed, helpers, sys_)
        except ValueError as err:
            print("ValueError:", err)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(msrcode.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.startswith("ValueError: "), out.stdout + out.stderr


# -- bandwidth report ------------------------------------------------------------------


def test_bandwidth_report_q2_t3():
    report = bandwidth_report(make_params(2, 3, 7))
    assert (report.per_helper, report.total, report.naive) == (4, 20, 32)
    assert report.ratio == 0.625


def test_bandwidth_report_q3_t3():
    report = bandwidth_report(make_params(3, 3, 8))
    assert (report.per_helper, report.total, report.naive) == (9, 72, 162)
    assert abs(report.ratio - 0.444) < 1e-3
    # beta = alpha / (d-k+1): 9 = 27/3
    p = make_params(3, 3, 8)
    assert p.beta == p.alpha // (p.d - p.k + 1) == 9


def test_bandwidth_report_q2_t2():
    report = bandwidth_report(make_params(2, 2, 5))
    assert (report.per_helper, report.total, report.naive) == (2, 6, 8)
    assert "repair download    : 6" in str(report)
