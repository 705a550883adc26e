"""Single-node repair: exactness for every node, strict packet validation,
verbatim help-by-transfer, coverage, and bandwidth accounting."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import msrcode
from conftest import eval_constraints, stripe_array
from msrcode import (
    CodewordArray,
    bandwidth_report,
    encode,
    helper_extract,
    make_params,
    repair_node,
)
from msrcode.codec import encode_batch
from msrcode.repair import HelperPacket, repair_batch


def random_message(params, rng):
    return [rng.randrange(params.gf.order) for _ in range(params.message_len)]


def packets_for(arr, failed, params):
    return [
        helper_extract(arr.column(h), h, failed, params)
        for h in params.nodes()
        if h != failed
    ]


# -- helper_extract -------------------------------------------------------------


def test_extract_zero_content(sys23):
    p = sys23.params
    packet = helper_extract([0] * p.alpha, (2, 0), (1, 0), p)
    assert len(packet.entries) == p.beta
    assert all(v == 0 for _, v in packet.entries)


def test_extract_rows_are_gamma(sys23):
    p = sys23.params
    packet = helper_extract(list(range(p.alpha)), (3, 0), (1, 0), p)
    assert [r for r, _ in packet.entries] == p.gamma_rows((1, 0))
    assert all(r[0] == 0 for r, _ in packet.entries)


def test_extract_packet_size_all_nodes(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        for failed in p.nodes():
            for helper in p.nodes():
                if helper == failed:
                    continue
                packet = helper_extract([0] * p.alpha, helper, failed, p)
                assert len(packet.entries) == p.beta


def test_extract_is_verbatim(sys23):
    p = sys23.params
    rng = random.Random(20)
    arr = encode(random_message(p, rng), sys23)
    for failed in p.nodes():
        for helper in p.nodes():
            if helper == failed:
                continue
            column = arr.column(helper)
            packet = helper_extract(column, helper, failed, p)
            for row, value in packet.entries:
                assert value == column[p.row_ordinal(row)] == arr.get(row, helper)


def test_extract_self_help_rejected(sys23):
    p = sys23.params
    with pytest.raises(ValueError):
        helper_extract([0] * p.alpha, (1, 0), (1, 0), p)


def test_extract_bad_content_length(sys23):
    with pytest.raises(ValueError):
        helper_extract([0] * 3, (2, 0), (1, 0), sys23.params)


# -- repair_node -----------------------------------------------------------------


def test_repair_zero_codeword(sys23):
    p = sys23.params
    arr = CodewordArray.zeros(p)
    for failed in p.nodes():
        result = repair_node(failed, packets_for(arr, failed, p), sys23)
        assert result.symbols == [0] * p.alpha
        assert result.downloaded_total == p.d * p.beta == (p.n - 1) * p.q ** (p.t - 1)


def test_repair_every_node_exact(all_systems):
    rng = random.Random(21)
    for sys_ in all_systems:
        p = sys_.params
        for trial in range(3):
            arr = encode(random_message(p, rng), sys_)
            for failed in p.nodes():
                result = repair_node(failed, packets_for(arr, failed, p), sys_)
                assert result.symbols == arr.column(failed)
                assert result.node == failed
                assert result.downloaded_total == p.d * p.beta


def test_repair_download_is_msr_optimal(all_systems):
    for sys_ in all_systems:
        p = sys_.params
        arr = CodewordArray.zeros(p)
        result = repair_node((1, 0), packets_for(arr, (1, 0), p), sys_)
        # count actual symbols moved, not the formula
        assert result.downloaded_total == sum(
            len(pk.entries) for pk in packets_for(arr, (1, 0), p))
        assert result.downloaded_total == p.d * (p.alpha // (p.d - p.k + 1))


def test_repair_wrong_packet_count(sys23):
    p = sys23.params
    arr = CodewordArray.zeros(p)
    packets = packets_for(arr, (1, 0), p)
    with pytest.raises(ValueError):
        repair_node((1, 0), packets[:-1], sys23)


def test_repair_duplicate_helpers(sys23):
    p = sys23.params
    arr = CodewordArray.zeros(p)
    packets = packets_for(arr, (1, 0), p)
    with pytest.raises(ValueError):
        repair_node((1, 0), packets[:-1] + [packets[0]], sys23)


def test_repair_packet_from_failed_node(sys23):
    p = sys23.params
    arr = CodewordArray.zeros(p)
    packets = packets_for(arr, (1, 0), p)
    bogus = HelperPacket((1, 0), packets[0].entries)
    with pytest.raises(ValueError):
        repair_node((1, 0), packets[:-1] + [bogus], sys23)


def test_repair_wrong_row_set(sys23):
    p = sys23.params
    arr = CodewordArray.zeros(p)
    packets = packets_for(arr, (1, 0), p)
    # rows extracted for a different failed node
    wrong = helper_extract(arr.column((3, 1)), (3, 1), (1, 1), p)
    with pytest.raises(ValueError):
        repair_node((1, 0), packets[:-1] + [wrong], sys23)


def test_repair_rejects_system_without_c0(sys23):
    from msrcode import build_system

    p = sys23.params
    plain = build_system(p, 0)
    arr = CodewordArray.zeros(p)
    with pytest.raises(ValueError):
        repair_node((1, 0), packets_for(arr, (1, 0), p), plain)


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
        msgs = rng.integers(0, p.gf.order, size=(p.message_len, 9)).astype(np.uint16)
        columns = encode_batch(msgs, sys_)
        for s in range(msgs.shape[1]):
            assert eval_constraints(stripe_array(columns, s, p), sys_) == [0] * sys_.n_constraints
        for failed in p.nodes():
            gamma_idx = [p.row_ordinal(r) for r in p.gamma_rows(failed)]
            gamma_cols = {
                h: columns[h][gamma_idx] for h in p.nodes() if h != failed
            }
            rebuilt = repair_batch(failed, gamma_cols, sys_)
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
