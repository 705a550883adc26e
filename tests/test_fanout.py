"""Sharing payload-block ranges among forked workers: the ranges, the
fork/join of their (CRC-32, length) pairs, and the CRC-32 join itself."""

import os
import random
import zlib

import pytest

from msrcode import codec, fanout, shardio
from msrcode.fanout import block_ranges, crc32_join, forked_ranges
from msrcode.shardio import BLOCK_STRIPES, HEADER_LEN


def test_crc32_join_is_the_crc_of_the_concatenation():
    rng = random.Random(11)
    for left, right in [(0, 0), (9, 0), (0, 7), (1, 1), (13, 255), (26, 4099), (1001, 65539)]:
        a, b = rng.randbytes(left), rng.randbytes(right)
        assert crc32_join(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)
    # three parts, as a shard's header and two workers' ranges
    parts = [rng.randbytes(n) for n in (HEADER_LEN, 3333, 40961)]
    crc = zlib.crc32(parts[0])
    for part in parts[1:]:
        crc = crc32_join(crc, zlib.crc32(part), len(part))
    assert crc == zlib.crc32(b"".join(parts))


def test_block_ranges_are_contiguous_and_balanced_by_stripes(monkeypatch):
    monkeypatch.setattr(codec, "_usable_cpus", lambda: 3)
    big = 1 << 40  # input enough for any number of workers
    assert block_ranges(0, 0) == [(0, 0)]
    assert block_ranges(BLOCK_STRIPES, big) == [(0, 1)]  # one block: one worker
    # 7 blocks, the last 1096 stripes: 8192, 8192 and 9288 stripes
    assert block_ranges(7 * BLOCK_STRIPES - 3000, big) == [(0, 2), (2, 4), (4, 7)]
    # one worker per _MIN_BYTES_PER_WORKER input bytes
    assert block_ranges(7 * BLOCK_STRIPES, 2 * fanout._MIN_BYTES_PER_WORKER) == [(0, 4), (4, 7)]
    assert block_ranges(7 * BLOCK_STRIPES, fanout._MIN_BYTES_PER_WORKER - 1) == [(0, 7)]
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(codec, "_usable_cpus", lambda: cpus)
        for stripes in range(1, 12 * BLOCK_STRIPES, 977):
            ranges = block_ranges(stripes, big)
            blocks = -(-stripes // BLOCK_STRIPES)
            assert len(ranges) == min(cpus, blocks)
            assert [lo for lo, _ in ranges] == [0, *(hi for _, hi in ranges[:-1])]
            assert ranges[-1][1] == blocks and all(lo < hi for lo, hi in ranges)
            for w, (_, hi) in enumerate(ranges[:-1]):  # each cut within a block of its share
                assert abs(hi * BLOCK_STRIPES - (w + 1) * stripes / len(ranges)) <= BLOCK_STRIPES


def test_forked_ranges_is_one_call_over_every_block(forking, monkeypatch):
    # 5 blocks on 3 workers: the first range runs here and each other one in
    # a child of its own, whose pairs come back through the shared mmap and
    # are joined in block order into what one call over the 5 blocks gives;
    # this process's CPUs are as they were, and no child is left
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 8)
    rng = random.Random(5)
    files = [rng.randbytes(5 * 100), rng.randbytes(5 * 7)]  # 100 and 7 bytes a block

    def work(lo, hi):
        got.append((lo, hi, os.getpid()))
        return [(zlib.crc32(f[lo * n : hi * n]), (hi - lo) * n)
                for f, n in zip(files, (100, 7))]

    whole = [(zlib.crc32(f), len(f)) for f in files]
    for cpus, forked in [(1, 0), (3, 2)]:
        forks, got = forking(cpus), []
        forks.clear()
        affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        assert forked_ranges(work, 5 * 8, 1000, 2) == whole
        assert got == [(0, 5 if cpus == 1 else 2, os.getpid())]  # the children's are theirs
        assert len(forks) == forked
        if affinity is not None:
            assert os.sched_getaffinity(0) == affinity
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
