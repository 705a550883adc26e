"""encode and decode over payload-block ranges, one process per usable CPU.

Block b sits at a fixed offset in every file: HEADER_LEN +
b*payload_bytes(BLOCK_STRIPES, alpha, m) in a shard, shardio.input_offset(b)
in the input and in a decoded output, and no block's bytes depend on
another's.  So forked_ranges splits the blocks into contiguous ranges
balanced by stripes (block_ranges), works the first range in this process
and each other one in an os.fork()ed worker (codec._forked, which also
runs verify's workers), and joins what each range returns: the CRC-32 and
length of each file's bytes it read or wrote there (crc32_join).  A worker
reads through a file description of its own (ShardReader.reopened,
os.pread) and writes with os.pwrite (shardio.write_at), so no process
moves another's file offset.  Only encode and decode import this module;
the other commands do not compile it.
"""

from __future__ import annotations

import functools
import os
import struct

from . import codec, shardio

# The least input a worker is given: 1 MiB.  Forking a worker costs a
# command about 4 ms, the work of 0.5 to 1 MiB of input at (2,2,3),
# (2,2,16) and (3,3,8) alike (in-process, 15 alternating runs each), while
# a 4096-stripe block holds 12 KiB of input at (2,2,3) and 648 KiB at
# (3,3,8): a minimum in blocks would fit only one code.
_MIN_BYTES_PER_WORKER = 1 << 20


def block_ranges(stripe_count: int, file_length: int) -> list[tuple[int, int]]:
    """The payload blocks of the stripe_count stripes that hold a
    file_length-byte input, as contiguous [lo, hi) ranges of block indices,
    one per worker: as many as there are usable CPUs, capped at one per
    block and per _MIN_BYTES_PER_WORKER input bytes.  They are balanced by
    stripes: range w ends at the block boundary nearest to (w + 1)/W of
    the stripes."""
    width = shardio.BLOCK_STRIPES
    blocks = -(-stripe_count // width)
    workers = max(1, min(codec._usable_cpus(), blocks, file_length // _MIN_BYTES_PER_WORKER))
    cuts = [0]
    for w in range(1, workers):  # each cut at most blocks - 1: no range is empty
        cuts.append(max(cuts[-1] + 1, round(w * stripe_count / (workers * width))))
    return list(zip(cuts, [*cuts[1:], blocks]))


def forked_ranges(work, stripe_count: int, file_length: int,
                  width: int) -> list[tuple[int, int]]:
    """What work(0, B) returns for the B payload blocks of stripe_count
    stripes that hold a file_length-byte input, where work(lo, hi) works
    blocks lo..hi-1 and returns a (CRC-32, length) pair per file for the
    bytes it read or wrote there, one for each of `width` files.  The
    blocks are split into block_ranges: this process works the first, and
    a child each other one (codec._forked), whose pairs come back through
    an anonymous shared mmap made before the fork; a range whose child was
    not clean is worked again here.  So work must be safe to repeat, and
    must share no file offset with another process.  Each file's pairs are
    joined in block order."""
    ranges = block_ranges(stripe_count, file_length)
    if len(ranges) == 1 or not hasattr(os, "fork"):
        return work(0, ranges[-1][1])
    import mmap

    slot = struct.Struct(f"<{2 * width}Q")
    parts: list = [None] * len(ranges)

    def child(w):
        slot.pack_into(shared, w * slot.size, *(v for pair in work(*ranges[w]) for v in pair))
        return True

    def here(w):
        parts[w] = work(*ranges[w])

    with mmap.mmap(-1, len(ranges) * slot.size) as shared:
        codec._forked(len(ranges), child, here)
        for w, got in enumerate(parts):
            if got is None:  # its child's, clean
                flat = slot.unpack_from(shared, w * slot.size)
                parts[w] = list(zip(flat[::2], flat[1::2]))
    joined = parts[0]
    for part in parts[1:]:
        joined = [(crc32_join(crc, crc2, len2), length + len2)
                  for (crc, length), (crc2, len2) in zip(joined, part)]
    return joined


# -- joining CRC-32s ----------------------------------------------------------------

_CRC32_POLY = 0xEDB88320  # zlib's, bit-reflected: bit 31 is x^0, bit 0 is x^31


def _crc32_mulmod(a: int, b: int) -> int:
    """a * b modulo the CRC-32 polynomial, in its reflected bit order."""
    product = 0
    while a:
        if a & 0x80000000:
            product ^= b
        a = a << 1 & 0xFFFFFFFF
        b = b >> 1 ^ _CRC32_POLY if b & 1 else b >> 1
    return product


@functools.lru_cache(maxsize=64)  # a command joins its n files' ranges at a few lengths
def _zero_bytes_shift(n: int) -> int:
    """x^(8n) modulo the CRC-32 polynomial: what n zero bytes do to a CRC."""
    shift, square = 1 << 31, 1 << 23  # x^0; x^8, one zero byte
    while n:
        if n & 1:
            shift = _crc32_mulmod(square, shift)
        n >>= 1
        square = _crc32_mulmod(square, square)
    return shift


def crc32_join(crc1: int, crc2: int, len2: int) -> int:
    """The CRC-32 of A + B from crc1 = crc32(A), crc2 = crc32(B) and len2 =
    len(B), as zlib's crc32_combine: crc1 carried through len2 zero bytes,
    plus crc2."""
    return _crc32_mulmod(_zero_bytes_shift(len2), crc1) ^ crc2
