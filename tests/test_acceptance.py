"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
All tolerances are exact (structural claims); the timed criteria assert
their stated wall-clock budgets.
"""

import itertools
import math
import os
import random
import re
import time
from fractions import Fraction

from conftest import (FOUND_C0, eval_constraints, gamma_ordinals, kronecker_system, random_block,
                      row_ordinal, system_for)
from msrcode import build_system, encode, encode_batch, make_params, repair_batch, verify_mds
from msrcode.cli import EXIT_OK, main
from msrcode.gf import GF2M
from msrcode.parity import build_hmds, check_mds_ranks, valid_c0s
from msrcode.shardio import (BLOCK_STRIPES, HEADER_LEN, Manifest, read_gamma, read_shard,
                             shard_filename)

PARAM_SETS = [(2, 2, 5), (3, 2, 4), (2, 3, 7)]
SUBSET_COUNTS = {(2, 2, 5): 6, (3, 2, 4): 20, (2, 3, 7): 15}


def report(num, problems, detail):
    status = "FAIL" if problems else "PASS"
    print(f"\n[criterion {num}] {status}: {detail}")
    assert not problems, f"criterion {num}: {problems[:5]}"


def test_criterion_1_mds_exhaustive():
    t0 = time.monotonic()
    problems = []
    for q, t, m in PARAM_SETS:
        params = make_params(q, t, m)
        if valid_c0s(params)[0] != FOUND_C0[(q, t, m)]:
            problems.append(f"c0 search missed {FOUND_C0[(q, t, m)]} at {(q, t, m)}")
        sys_ = build_system(params.with_c0(FOUND_C0[(q, t, m)]))
        if check_mds_ranks(sys_):
            problems.append(f"rank deficiency at {(q, t, m)}")
        rep = verify_mds(sys_, trials=10)
        if rep.subset_count != SUBSET_COUNTS[(q, t, m)]:
            problems.append(f"subset count {rep.subset_count} at {(q, t, m)}")
        if not rep.ok:
            problems.append(f"{len(rep.failures)} decode failures at {(q, t, m)}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s (budget 60s)")
    report(1, problems, "every size-q subset full rank; 10 random messages "
                        f"decoded from every k-subset (6/20/15); {elapsed:.1f}s")


def test_criterion_2_repair_exact_and_bandwidth():
    t0 = time.monotonic()
    rng = random.Random(42)
    problems = []
    stripes = 4
    for q, t, m in PARAM_SETS:
        sys_ = system_for(q, t, m)
        p = sys_.params
        columns = encode_batch(random_block(p, rng, stripes), sys_)
        for failed in p.nodes():
            gamma = gamma_ordinals(p, failed)
            helpers = {h: columns[h].take(gamma) for h in p.nodes() if h != failed}
            if any((stack.rows, stack.stripes) != (p.q ** (p.t - 1), stripes)
                   for stack in helpers.values()):
                problems.append(f"per-helper download != beta at {(q, t, m)}")
            if repair_batch(failed, helpers, sys_) != columns[failed]:
                problems.append(f"repair mismatch for node {failed} at {(q, t, m)}")
            total = sum(stack.rows for stack in helpers.values())
            if total != (p.n - 1) * p.q ** (p.t - 1):
                problems.append(f"total download {total} at {(q, t, m)}")
    # spot value from the statement: 20 symbols vs naive 32 for (2,3)
    p23 = system_for(2, 3, 7).params
    if (p23.d * p23.beta, p23.message_len) != (20, 32):
        problems.append("(2,3) bandwidth spot values wrong")
    elapsed = time.monotonic() - t0
    if elapsed >= 30:
        problems.append(f"took {elapsed:.1f}s (budget 30s)")
    report(2, problems, "every node of every set repaired bit-identically; "
                        f"downloads exactly beta per helper, d*beta total; {elapsed:.1f}s")


def sufficient_field_size(p):
    """The field size above which a valid c0 exists: one more than the
    degree bound comb(n, k) * q^t * (q-1) of the product of the subset
    determinants, a polynomial in c0."""
    return math.comb(p.n, p.k) * p.alpha * (p.q - 1) + 1


def test_criterion_3_search_within_sufficient_field_bound():
    problems = []
    p22 = make_params(2, 2, 5)
    if sufficient_field_size(p22) != 25:
        problems.append("(2,2) bound != 25")
    try:
        valid_c0s(p22)[0]
    except ValueError:
        problems.append("(2,2) search failed inside GF(2^5)")
    p23 = make_params(2, 3, 7)
    if sufficient_field_size(p23) != 121:
        problems.append("(2,3) bound != 121")
    try:
        valid_c0s(p23)[0]
    except ValueError:
        problems.append("(2,3) search failed inside GF(2^7)")
    report(3, problems, "c0 found within GF(2^5) for (2,2) [25 < 32] and "
                        "GF(2^7) for (2,3) [121 < 128]")


def test_criterion_4_kronecker_at_zero():
    problems = []
    plain = kronecker_system(system_for(2, 2, 5))
    params = plain.params
    hmds = build_hmds(params)
    alpha = params.alpha
    rows = plain.thick_rows(params.nodes())  # H, as sparse rows
    for r in range(len(hmds) * alpha):
        for c in range(len(hmds[0]) * alpha):
            expect = hmds[r // alpha][c // alpha] if r % alpha == c % alpha else 0
            if rows[r].get(c, 0) != expect:
                problems.append(f"H != kron at ({r},{c})")
    if check_mds_ranks(plain):
        problems.append("rank deficiency at c=0")
    report(4, problems, "H(c=0) equals the Vandermonde-kron-identity "
                        "matrix entry-for-entry; all size-q subsets full rank")


def test_criterion_5_parameter_identities():
    problems = []
    tested = PARAM_SETS + [(3, 3, 8), (6, 2, 4)]
    for q, t, m in tested:
        p = make_params(q, t, m)
        sys_ = build_system(p.with_c0(1))
        checks = [
            p.alpha == (p.d - p.k + 1) * p.beta,
            p.message_len == p.k * p.alpha,
            # alpha as an exact polynomial in k (see decisions ledger):
            p.alpha == (p.k // (p.t - 1)) ** p.t == (p.n // p.t) ** p.t,
            p.rate == Fraction(t - 1, t),
            len(sys_.terms) == q ** (t + 1),
            # constraint idx has delta = divmod(idx, alpha)[0]
            all(len(con) == p.n for idx, con in enumerate(sys_.terms)
                if divmod(idx, p.alpha)[0] == 0),
            all(len(con) == p.n + p.t for idx, con in enumerate(sys_.terms)
                if divmod(idx, p.alpha)[0] != 0),
        ]
        if not all(checks):
            problems.append(f"identity {checks.index(False)} fails at {(q, t, m)}")
    report(5, problems, "MSR identities, rate, constraint count and weights "
                        f"exact for {tested}")


def test_criterion_6_help_by_transfer(tmp_path, capsys):
    problems = []
    # (a) every transmitted symbol is a verbatim stored symbol: what repair
    # reads from each CLI helper shard is exactly its stored helper rows
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(5000))
    for q, t, m in PARAM_SETS:
        store = tmp_path / f"store_{q}_{t}"
        main(["init", "--q", str(q), "--t", str(t), "--m", str(m), "--out-dir", str(store)])
        main(["encode", str(src), "--out-dir", str(store)])
        p = Manifest.read(store / "manifest.txt").params()
        stored = {nd: read_shard(store / shard_filename(nd))[1] for nd in p.nodes()}
        for failed in p.nodes():
            gamma = gamma_ordinals(p, failed)
            for helper in p.nodes():
                if helper == failed:
                    continue
                _, sent, _ = read_gamma(store / shard_filename(helper), failed, p)
                if sent != stored[helper].take(gamma):
                    problems.append(f"non-verbatim symbol at {(q, t, m)}")
    # (b) CLI repair reads at most the header, then beta*m bits per stripe
    # per helper, each of its beta rows in each block in whole bytes and
    # with its digest
    store = tmp_path / "store_2_3"
    man = Manifest.read(store / "manifest.txt")
    p = man.params()
    widths = [min(BLOCK_STRIPES, man.stripe_count - lo)
              for lo in range(0, man.stripe_count, BLOCK_STRIPES)]
    bound = HEADER_LEN + p.beta * sum(-(-w * p.gf.m // 8) + 4 for w in widths)
    for helper in p.nodes():
        if helper == (1, 0):
            continue
        _, _, nbytes = read_gamma(store / shard_filename(helper), (1, 0), p)
        if nbytes > bound:
            problems.append(f"helper {helper} read {nbytes} > {bound}")
    (store / shard_filename((1, 0))).unlink()
    if main(["repair", "--node", "1,0", "--out-dir", str(store)]) != EXIT_OK:
        problems.append("cli repair failed")
    out = capsys.readouterr().out
    got = int(re.search(r"per-helper read : (\d+) bytes", out).group(1))
    if got > bound:
        problems.append(f"cli repair read {got} > bound {bound}")
    report(6, problems, "helper rows read verbatim; repair reads "
                        f"{got} bytes/helper <= header + beta*m bits/stripe + row digests = {bound}")


def test_criterion_7_end_to_end_cli(tmp_path, capsys):
    t0 = time.monotonic()
    problems = []
    store = tmp_path / "store"
    src = tmp_path / "input.bin"
    data = random.Random(7).randbytes(1 << 20)
    src.write_bytes(data)
    if main(["init", "--q", "2", "--t", "3", "--m", "7", "--out-dir", str(store)]) != EXIT_OK:
        problems.append("init failed")
    if main(["encode", str(src), "--out-dir", str(store)]) != EXIT_OK:
        problems.append("encode failed")
    shards = sorted(store.glob("shard_*.msrc"))
    if len(shards) != 6:
        problems.append(f"expected 6 shards, got {len(shards)}")
    out = tmp_path / "out.bin"
    for subset in itertools.combinations(shards, 4):
        out.unlink(missing_ok=True)
        if main(["decode", str(out), *map(str, subset)]) != EXIT_OK:
            problems.append(f"decode failed for {[s.name for s in subset]}")
        elif out.read_bytes() != data:
            problems.append(f"decode mismatch for {[s.name for s in subset]}")
    for shard in shards:
        original = shard.read_bytes()
        shard.unlink()
        i, theta = re.match(r"shard_(\d+)_(\d+)", shard.name).groups()
        if main(["repair", "--node", f"{i},{theta}", "--out-dir", str(store)]) != EXIT_OK:
            problems.append(f"repair failed for {shard.name}")
        elif shard.read_bytes() != original:
            problems.append(f"repair mismatch for {shard.name}")
    elapsed = time.monotonic() - t0
    if elapsed >= 120:
        problems.append(f"took {elapsed:.1f}s (budget 120s)")
    capsys.readouterr()  # swallow per-command chatter
    report(7, problems, "1 MiB file: all 15 decode subsets byte-exact, "
                        f"all 6 shards repaired byte-exact; {elapsed:.1f}s")


def test_criterion_8_property_suites():
    problems = []
    cases = 0
    rng = random.Random(8)
    # field axioms: exhaustive inverses/group order for m <= 8
    for m in range(1, 9):
        gf = GF2M(m)
        for a in range(1, gf.order):
            cases += 1
            power = a
            for _ in range(gf.order - 2):
                power = gf.mul(power, a)  # a^(2^m - 1) when done
            if gf.mul(a, gf.inv(a)) != 1 or power != 1:
                problems.append(f"inverse/group-order failure at m={m}, a={a}")
    # field axioms: random triples
    gf = GF2M(8)
    for _ in range(300):
        cases += 1
        a, b, c = (rng.randrange(256) for _ in range(3))
        ok = (gf.mul(a, b) == gf.mul(b, a)
              and gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
              and gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c))
        if not ok:
            problems.append(f"axiom failure on ({a},{b},{c})")
    # encode linearity + perturbation detection
    sys22 = system_for(2, 2, 5)
    p = sys22.params
    for _ in range(125):
        cases += 1
        m1 = [rng.randrange(p.gf.order) for _ in range(p.message_len)]
        m2 = [rng.randrange(p.gf.order) for _ in range(p.message_len)]
        a = rng.randrange(1, p.gf.order)
        combo = encode([p.gf.mul(a, x) ^ y for x, y in zip(m1, m2)], sys22)
        e1, e2 = encode(m1, sys22), encode(m2, sys22)
        for nd in p.nodes():
            if combo[nd] != [p.gf.mul(a, x) ^ y for x, y in zip(e1[nd], e2[nd])]:
                problems.append("linearity failure")
        cases += 1
        e1[p.node_at(rng.randrange(p.n))][rng.randrange(p.alpha)] ^= rng.randrange(1, p.gf.order)
        if not any(eval_constraints(e1, sys22)):
            problems.append("perturbation not detected")
    # ordinal bijections
    for q, t, m in [(2, 3, 7), (3, 3, 8)]:
        pp = make_params(q, t, m)
        for o in range(pp.alpha):
            cases += 1
            if row_ordinal(pp, pp.row_at(o)) != o:
                problems.append(f"row bijection failure at {o}")
        for o in range(pp.n):
            cases += 1
            if pp.node_ordinal(pp.node_at(o)) != o:
                problems.append(f"node bijection failure at {o}")
    if cases < 1000:
        problems.append(f"only {cases} randomized cases (need >= 1000)")
    report(8, problems, f"{cases} property cases, zero failures")
