"""Shard header/manifest formats, the bytes <-> Block slicing, row digests,
and partial-read accounting."""

import contextlib
import hashlib
import random
import re
import tempfile
import time
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gamma_ordinals, random_block, rows_of, stripes_of, to_block
from msrcode import codec, make_params, shardio
from msrcode.gf import Block
from msrcode.shardio import (
    BLOCK_STRIPES,
    HEADER_LEN,
    Manifest,
    ShardFormatError,
    ShardHeader,
    ShardReader,
    bytes_from_symbols,
    crc32_file,
    open_shard,
    payload_bytes,
    read_gamma,
    read_shard,
    shard_filename,
    stripe_count_for,
    symbols_from_bytes,
    write_shard,
)


# -- header -------------------------------------------------------------------


def test_header_is_26_bytes():
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (1, 0), 0, 0)
    assert HEADER_LEN == 26
    assert len(hdr.pack()) == 26
    for name in ("c0", "stripe_count"):  # immutable
        with pytest.raises(AttributeError):
            setattr(hdr, name, 2)


def test_header_round_trip_bit_exact():
    for hdr in [
        ShardHeader(2, 3, 7, 0x89, 1, (1, 0), 0, 0),
        ShardHeader(3, 2, 4, 0b10011, 2, (2, 2), 12345, 987654321),
        ShardHeader(2, 2, 16, 0x1100B, 77, (2, 1), 2**31 - 1, 2**63 - 1),
    ]:
        packed = hdr.pack()
        assert ShardHeader.unpack(packed) == hdr
        assert hash(ShardHeader.unpack(packed)) == hash(hdr)
        assert ShardHeader.unpack(packed).pack() == packed
    assert ShardHeader(2, 3, 7, 0x89, 1, node=(1, 0), stripe_count=0, file_length=0) == \
        ShardHeader(2, 3, 7, 0x89, 1, (1, 0), 0, 0)


def test_header_m16_poly_reconstructed():
    # degree-16 polynomial does not fit in 2 bytes; the leading bit is implicit
    hdr = ShardHeader(2, 2, 16, 0x1100B, 3, (1, 1), 1, 16)
    assert ShardHeader.unpack(hdr.pack()).reduction_poly == 0x1100B


def test_header_bad_magic_version_length():
    good = ShardHeader(2, 3, 7, 0x89, 1, (1, 0), 0, 0).pack()
    with pytest.raises(ShardFormatError):
        ShardHeader.unpack(b"XSRC" + good[4:])
    with pytest.raises(ShardFormatError):
        ShardHeader.unpack(good[:4] + b"\x01" + good[5:])
    with pytest.raises(ShardFormatError):
        ShardHeader.unpack(good[:-1])


# -- manifest -----------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    man = Manifest(2, 3, 7, 0x89, 1, stripe_count=4, file_length=100,
                   checksums={(1, 0): 0xDEADBEEF, (3, 1): 0x0000ABCD})
    path = tmp_path / "manifest.txt"
    man.write(path)
    assert Manifest.read(path) == man


def test_manifest_text_shape():
    man = Manifest(2, 2, 5, 0b100101, 1, checksums={(1, 0): 1})
    text = man.to_text()
    assert "q=2" in text and "c0=1" in text
    assert "checksum_1_0=00000001" in text
    assert text.endswith("\n")


def test_manifest_seed_has_no_checksums():
    p = make_params(2, 2, 5).with_c0(1)
    man = Manifest.for_params(p)
    assert man.stripe_count == 0 and man.file_length == 0 and man.checksums == {}
    assert man.params() == p
    # each manifest gets its own checksums dict; manifests are equal by
    # value, and mutable, so unhashable
    other = Manifest(2, 2, 5, p.gf.poly, 1)
    assert other == man and other.checksums is not man.checksums
    other.checksums[(1, 0)] = 7
    assert man.checksums == {} and other != man
    with pytest.raises(TypeError):
        hash(man)


def test_manifest_rejects_unknown_and_missing_keys():
    with pytest.raises(ShardFormatError):
        Manifest.from_text("q=2\nwat=3\n")
    with pytest.raises(ShardFormatError):
        Manifest.from_text("q=2\nt=2\n")
    with pytest.raises(ShardFormatError):
        Manifest.from_text("q=2\nt,2\n")
    with pytest.raises(ShardFormatError, match="not an integer"):
        Manifest.from_text("q=2x\n")


@pytest.mark.parametrize("repeat, match", [
    ("q=3\n", "repeats 'q'"),  # the same value again
    ("checksum_1_0=00000008\n", r"repeats the checksum of node \(1, 0\)"),  # a conflicting one
], ids=["parameter", "checksum"])
def test_manifest_rejects_a_repeated_key(repeat, match):
    # no last-one-wins: a second line for a key is refused
    text = Manifest(3, 3, 8, 0x11D, 1, checksums={(1, 0): 7}).to_text()
    with pytest.raises(ShardFormatError, match=match):
        Manifest.from_text(text + repeat)


def test_manifest_params_crc_guards_the_parameter_lines():
    text = Manifest(3, 3, 8, 0x11D, 1, stripe_count=5, file_length=99,
                    checksums={(1, 0): 7}).to_text()
    crc = zlib.crc32(text[: text.index("params_crc=")].encode())
    assert f"params_crc={crc}\n" in text  # decimal, as every non-checksum value
    with pytest.raises(ShardFormatError, match="missing keys: params_crc"):
        Manifest.from_text(re.sub(r"^params_crc=.*\n", "", text, flags=re.M))
    for line in ("t=9", "file_length=98", f"params_crc={crc ^ 1}"):
        key = line.split("=")[0]
        with pytest.raises(ShardFormatError, match="params_crc"):
            Manifest.from_text(re.sub(rf"^{key}=.*$", line, text, flags=re.M))
    # a checksum line is not a parameter line; decode checks it against the shard
    changed = Manifest.from_text(text.replace("checksum_1_0=00000007", "checksum_1_0=8"))
    assert changed.checksums == {(1, 0): 8}


def test_manifest_matches_header():
    man = Manifest(2, 3, 7, 0x89, 1, stripe_count=9, file_length=55,
                   checksums={nd: 0 for nd in make_params(2, 3, 7).nodes()})
    assert man.matches_header(man.header_for((2, 1)))
    other = ShardHeader(2, 3, 7, 0x89, 1, (2, 1), 8, 55)
    assert not man.matches_header(other)
    assert not man.matches_header(man.header_for((9, 0)))  # no node of the code


def test_shard_filename():
    assert shard_filename((3, 1)) == "shard_3_1.msrc"


# -- bytes <-> blocks ----------------------------------------------------------------


def shape_for(length, m, rows=3):
    """(rows, stripes) of a block that holds `length` bytes: whole planes."""
    return rows, 8 * -(-length // (rows * m))


def reference_symbols(data: bytes, m: int, rows: int, stripes: int) -> list[list[int]]:
    """Bit-by-bit: the bytes are LSB-first bits, zero-filled, cut into
    rows*m planes of `stripes` bits; symbol (r, s) takes bit b from bit s
    of plane r*m + b."""
    bits = [(byte >> i) & 1 for byte in data for i in range(8)]
    bits += [0] * max(0, rows * m * stripes - len(bits))
    return [[sum(bits[(r * m + b) * stripes + s] << b for b in range(m)) for s in range(stripes)]
            for r in range(rows)]


def reference_bytes(rows: list[list[int]], m: int, byte_length: int) -> bytes:
    """Bit-by-bit: plane r*m + b is bit b of row r's symbols, stripe by
    stripe; the planes' bits in order, LSB-first, truncated."""
    bits = [(v >> b) & 1 for row in rows for b in range(m) for v in row]
    bits += [0] * (-len(bits) % 8)
    return bytes(sum(bits[i + b] << b for b in range(8))
                 for i in range(0, len(bits), 8))[:byte_length]


@pytest.mark.parametrize("m", [1, 3, 5, 7, 8, 13, 16])
def test_packing_round_trip(m):
    rng = random.Random(m)
    for length in (0, 1, 7, 64, 300):
        data = bytes(rng.randrange(256) for _ in range(length))
        rows, stripes = shape_for(length, m)
        block = symbols_from_bytes(data, m, rows, stripes)
        assert (block.m, block.rows, block.stripes) == (m, rows, stripes)
        assert all(0 <= plane < 1 << stripes for plane in block.planes)
        assert bytes_from_symbols(block, m, length) == data


@pytest.mark.parametrize("m", range(1, 17))
def test_packing_matches_bitwise_reference(m):
    rng = random.Random(100 + m)
    data = bytes(rng.randrange(256) for _ in range(50))
    for rows, stripes in ((1, 8), (2, 16), (5, 24), (3, 8 * -(-400 // (3 * m)))):
        # short of, and past, the data
        block = symbols_from_bytes(data, m, rows, stripes)
        expected = reference_symbols(data, m, rows, stripes)
        assert rows_of(block) == expected
        for length in (0, 7, rows * stripes * m // 8):
            assert bytes_from_symbols(to_block(expected, m), m, length) == \
                reference_bytes(expected, m, length)


@pytest.mark.parametrize("m", range(1, 17))
def test_unpacking_a_block_follows_the_stripe_stream(m):
    # inside each plane the stripes follow each other: one symbol v at
    # (r, s) sets exactly bit (r*m + b)*stripes + s of the bytes for each
    # set bit b of v
    rng = random.Random(m)
    for rows, stripes in [(5, 8), (1, 24), (3, 16)]:
        for _ in range(4):
            r, s, v = rng.randrange(rows), rng.randrange(stripes), rng.randrange(1, 1 << m)
            symbols = [[0] * stripes for _ in range(rows)]
            symbols[r][s] = v
            blob = bytes_from_symbols(to_block(symbols, m), m, rows * m * stripes // 8)
            assert int.from_bytes(blob, "little") == \
                sum(1 << ((r * m + b) * stripes + s) for b in range(m) if v >> b & 1)
            assert rows_of(symbols_from_bytes(blob, m, rows, stripes)) == symbols


@pytest.mark.parametrize("m", range(1, 17))
def test_packing_all_ones_has_no_shift_overflow(m):
    # every bit set: every symbol is 2^m - 1, and no bit is lost on the way back
    block = symbols_from_bytes(b"\xff" * (3 * m), m, 3, 8)
    assert rows_of(block) == [[(1 << m) - 1] * 8] * 3
    assert bytes_from_symbols(block, m, 3 * m) == b"\xff" * (3 * m)


@pytest.mark.parametrize("m", [1, 3, 8, 13])
def test_unpacking_out_of_field_symbol_is_value_error(m):
    # 2^m is a symbol of GF(2^(m+1)), not of GF(2^m)
    with pytest.raises(ValueError, match="not an element of GF"):
        bytes_from_symbols(to_block([[0, 1 << m]], m + 1), m, 2)


def test_packing_zero_fills_past_data():
    block = symbols_from_bytes(b"\xff", 8, 2, 8)
    assert rows_of(block) == [[1] * 8, [0] * 8]  # bit 0 of stripes 0-7


def test_block_from_bytes_refuses_a_partial_plane():
    with pytest.raises(ValueError, match="not 2 rows"):
        Block.from_bytes(bytes(31), 8, 2, 16)
    # 3 planes of 12 stripes are 36 bits: 5 bytes, neither 4 nor 6
    for size in (4, 6):
        with pytest.raises(ValueError, match="of 12 stripes"):
            Block.from_bytes(bytes(size), 3, 1, 12)
    assert Block.from_bytes(b"\xff" * 4 + b"\x0f", 3, 1, 12) == Block(3, 12, [0xFFF] * 3)


def test_stripe_count_for():
    p = make_params(2, 2, 16)  # B = 8 symbols: a stripe holds 16 bytes
    assert stripe_count_for(0, p.message_len, 16) == 0
    assert stripe_count_for(1, p.message_len, 16) == 1
    assert stripe_count_for(16, p.message_len, 16) == 1
    assert stripe_count_for(128, p.message_len, 16) == 8
    assert stripe_count_for(129, p.message_len, 16) == 9
    p7 = make_params(2, 3, 7)  # B = 32 symbols: a stripe holds 224 bits, 28 bytes
    assert stripe_count_for(28, p7.message_len, 7) == 1
    assert stripe_count_for(225, p7.message_len, 7) == 9  # 1800 bits
    assert stripe_count_for(1 << 20, p7.message_len, 7) == 37450


# -- shard files ------------------------------------------------------------------


def whole_blocks(node, rows):
    """The stream of blocks of one shard's whole (alpha, stripes) Block."""
    width = shardio.BLOCK_STRIPES
    return [{node: stripes_of(rows, lo, min(lo + width, rows.stripes))}
            for lo in range(0, rows.stripes, width)]


def write_whole(path, hdr, rows):
    """Write one shard from its whole (alpha, stripe_count) Block, block by
    block."""
    with contextlib.ExitStack() as renames:
        write_shard({path: hdr}, lambda lo, hi: whole_blocks(hdr.node, rows)[lo:hi], renames)


def zeros(rows, stripes, m=7):
    return Block(m, stripes, [0] * (rows * m))


def random_rows(params, seed, stripes):
    return random_block(params, random.Random(seed), stripes, params.alpha)


def test_shard_write_read_round_trip(tmp_path):
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 16, 133)
    rows = random_rows(make_params(2, 3, 7), 1, 16)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, rows)
    got_hdr, got_rows = read_shard(path)
    assert got_hdr == hdr
    assert got_rows == rows


def test_shard_truncated_payload_detected(tmp_path):
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 8, 50)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, zeros(8, 8))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ShardFormatError):
        read_shard(path)


def test_older_format_versions_are_refused(tmp_path):
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 8, 50)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, zeros(8, 8))
    blob = path.read_bytes()
    for version in (1, 2):
        path.write_bytes(blob[:4] + bytes([version]) + blob[5:])
        with pytest.raises(ShardFormatError, match=f"unsupported shard version {version}"):
            read_shard(path)


def test_a_garbled_stripe_count_is_refused_at_once(tmp_path, monkeypatch):
    # the size a header implies is computed in closed form, not block by
    # block: 2^32 - 8 stripes in blocks of 8 would be half a billion blocks
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 8)
    path = tmp_path / "s.msrc"
    path.write_bytes(ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 2**32 - 8, 50).pack() + bytes(300))
    start = time.perf_counter()
    with pytest.raises(ShardFormatError, match="header implies"):
        read_shard(path)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("read", ["whole", "gamma_runs"])
def test_a_bad_row_names_the_shard_and_the_block(tmp_path, monkeypatch, read):
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 8)
    p = make_params(2, 3, 7)
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 24, 133)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, random_rows(p, 2, 24))
    blob = bytearray(path.read_bytes())
    row = gamma_ordinals(p, (2, 0))[3]  # row 5: runs (0, 2), (4, 2); second row of the second
    blob[HEADER_LEN + payload_bytes(8, p.alpha, 7) + payload_bytes(8, row, 7) + 3] ^= 0x10
    path.write_bytes(bytes(blob))
    with open_shard(path) as shard:
        blocks = shard.blocks([(0, p.alpha)] if read == "whole" else p.gamma_runs((2, 0)))
        next(blocks)  # block 0 is intact
        with pytest.raises(ShardFormatError, match=rf"s\.msrc: block 1: row {row} "):
            next(blocks)


@pytest.mark.parametrize("stripes", [0, 5, 24])
def test_a_whole_read_leaves_the_file_crc(tmp_path, monkeypatch, stripes):
    # blocks of 8 stripes: none, one partial, and three full blocks
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 8)
    p = make_params(2, 3, 7)
    hdr = ShardHeader(2, 3, 7, p.gf.poly, 1, (2, 0), stripes, 0)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, random_rows(p, 4, stripes))
    with open_shard(path) as shard:
        for _ in shard.blocks([(0, p.alpha)]):
            pass
        assert shard.crc == crc32_file(path)


def test_whole_file_crc_sees_every_row(tmp_path):
    # each row carries its own digest, yet the file's CRC-32 (the manifest's
    # checksum) must still change with the row
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 8, 50)
    crcs = set()
    for row in range(8):
        symbols = [[0] * 8 for _ in range(8)]
        symbols[row][row] = 1
        with contextlib.ExitStack() as renames:
            crcs |= set(write_shard({tmp_path / "s.msrc": hdr},
                                    lambda lo, hi: [{hdr.node: to_block(symbols, 7)}],
                                    renames).values())
    assert len(crcs) == 8


def crc_change(delta: bytes) -> int:
    """What XORing `delta` into a row does to a CRC-32 of the row: CRC-32
    is affine over GF(2), so this is the same whatever the row."""
    return zlib.crc32(delta) ^ zlib.crc32(bytes(len(delta)))


def palindromic_change(width: int) -> bytes:
    """A change to a `width`-byte row whose change to a CRC-32 of the row is
    nonzero and reads the same byte-reversed, found by elimination over
    GF(2).  Were a row's check its CRC-32 stored big-endian, such a change
    made with the row's check re-stamped would leave the file's CRC-32 as
    it was; stored little-endian, any change would."""
    def fold(v):  # the part of v that is not byte-palindromic
        return v ^ int.from_bytes(v.to_bytes(4, "little"), "big")

    pivots = {}  # top bit -> (folded change, bits of the row flipped)
    for j in range(8 * width):
        w, flips = fold(crc_change((1 << j).to_bytes(width, "little"))), 1 << j
        while w and w.bit_length() - 1 in pivots:
            pw, pf = pivots[w.bit_length() - 1]
            w, flips = w ^ pw, flips ^ pf
        if w:
            pivots[w.bit_length() - 1] = (w, flips)
        elif crc_change(delta := flips.to_bytes(width, "little")):
            return delta
    raise AssertionError("no such change")


def test_checksum_sees_a_row_restamped_with_its_own_digest(tmp_path):
    # a row replaced and given its own correct digest, as in a shard left
    # stale by a failed rename, still changes the file's CRC-32 (the
    # manifest's checksum): the row digest is no GF(2)-linear image of the
    # row that could cancel the row's change inside the file's CRC-32
    p = make_params(2, 3, 7)
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 8, 50)
    path = tmp_path / "s.msrc"
    with contextlib.ExitStack() as renames:
        crc = write_shard({path: hdr}, lambda lo, hi: [{hdr.node: random_rows(p, 5, 8)}],
                          renames)[hdr.node]
    assert crc32_file(path) == crc
    width = payload_bytes(8, 1, 7) - shardio.DIGEST_LEN
    delta = palindromic_change(width)
    change = crc_change(delta)
    assert change == int.from_bytes(change.to_bytes(4, "little"), "big") != 0
    blob = bytearray(path.read_bytes())
    at = HEADER_LEN + payload_bytes(8, 3, 7)  # row 3
    row = bytes(a ^ b for a, b in zip(blob[at : at + width], delta))
    blob[at : at + width + shardio.DIGEST_LEN] = row + shardio.row_digest(row)
    path.write_bytes(bytes(blob))
    read_shard(path)  # every row matches its digest
    assert crc32_file(path) != crc


def test_write_shard_stripe_count_mismatch(tmp_path):
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 16, 50)
    with pytest.raises(ValueError):
        write_whole(tmp_path / "s.msrc", hdr, zeros(8, 8))


def test_write_shard_renames_only_complete_shards(tmp_path):
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 16, 133)
    path = tmp_path / "s.msrc"
    path.write_bytes(b"earlier")
    with pytest.raises(ValueError, match="0 of 16 stripes written"):
        write_whole(path, hdr, zeros(8, 0))
    with pytest.raises(ValueError, match="is not the next block"):
        write_whole(path, hdr, zeros(8, 8))
    with pytest.raises(ValueError, match="is not the next block"):  # (stripes, alpha)
        write_whole(path, hdr, zeros(16, 8))
    with pytest.raises(ValueError, match="is not the next block"):  # another field
        write_whole(path, hdr, zeros(8, 16, m=8))

    def failing():
        yield {hdr.node: zeros(8, 16)}
        raise OSError("input went away")

    with pytest.raises(OSError, match="went away"):
        with contextlib.ExitStack() as renames:
            write_shard({path: hdr}, lambda lo, hi: failing(), renames)
    assert [p.name for p in tmp_path.iterdir()] == ["s.msrc"]
    assert path.read_bytes() == b"earlier"
    ones = to_block([[1] * 16] * 8, 7)
    with contextlib.ExitStack() as renames:
        crc = write_shard({path: hdr}, lambda lo, hi: [{hdr.node: ones}], renames)
        assert path.read_bytes() == b"earlier"  # renamed when the stack closes
    assert crc == {hdr.node: crc32_file(path)}
    assert read_shard(path)[1] == ones
    with pytest.raises(RuntimeError):
        with contextlib.ExitStack() as renames:
            write_shard({path: hdr}, lambda lo, hi: [{hdr.node: zeros(8, 16)}], renames)
            raise RuntimeError("checksum mismatch")
    assert [p.name for p in tmp_path.iterdir()] == ["s.msrc"]
    assert read_shard(path)[1] == ones


def test_payload_is_row_contiguous_per_block(tmp_path, monkeypatch):
    assert BLOCK_STRIPES == 4096  # part of format version 3
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 8)
    rows = random_rows(make_params(2, 3, 7), 3, 21)
    symbols = rows_of(rows)
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 21, 196)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, rows)
    blob = path.read_bytes()
    assert blob[:HEADER_LEN] == hdr.pack() and blob[4] == 3
    # blocks [0,8), [8,16), [16,21); inside each, row after row: its 7
    # planes, 7 bytes (or 35 bits in 5 bytes), then their 4-byte BLAKE2b
    expected = b""
    for lo, nbytes in ((0, 7), (8, 7), (16, 5)):
        for row in symbols:
            planes = reference_bytes([row[lo : lo + 8]], 7, nbytes)
            expected += planes + hashlib.blake2b(planes, digest_size=4).digest()
    assert blob[HEADER_LEN:] == expected
    assert read_shard(path)[1] == rows


# -- partial reads -----------------------------------------------------------------


def recording_reader():
    """A ShardReader subclass that keeps its instances, so a test can
    inspect the one read_gamma used, and the list they go to.  Each is
    recorded before its header is read, so a refused open is kept too."""
    made = []

    class Recording(ShardReader):
        def __init__(self, f, path):
            made.append(self)
            super().__init__(f, path)

    return Recording, made


def test_gamma_runs_coalesced():
    p = make_params(2, 3, 7)
    assert p.gamma_runs((1, 0)) == [(0, 4)]  # rows 0..3 are contiguous
    assert p.gamma_runs((1, 1)) == [(4, 4)]
    assert p.gamma_runs((3, 1)) == [(1, 1), (3, 1), (5, 1), (7, 1)]
    assert p.gamma_runs((2, 0)) == [(0, 2), (4, 2)]
    for node in p.nodes():
        assert sum(length for _, length in p.gamma_runs(node)) == p.beta


def test_read_gamma_matches_full_read(tmp_path, sys23):
    p = sys23.params
    rows = random_rows(p, 2, 16)
    hdr = ShardHeader(2, 3, 7, p.gf.poly, p.c0, (2, 1), 16, 616)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, rows)
    for failed in [(1, 0), (3, 0), (3, 1)]:
        got_hdr, sent, nbytes = read_gamma(path, failed, p)
        assert got_hdr == hdr
        assert sent == rows.take(gamma_ordinals(p, failed))
        # exact accounting: the header, then beta rows of m planes of 16
        # stripes, each with its digest, and nothing else
        assert nbytes == HEADER_LEN + p.beta * (7 * 16 // 8 + 4)


def test_read_gamma_rejects_foreign_params(tmp_path):
    p23 = make_params(2, 3, 7)
    p22 = make_params(2, 2, 5)
    hdr = ShardHeader(2, 2, 5, p22.gf.poly, 1, (1, 0), 8, 4)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, zeros(4, 8, m=5))
    with pytest.raises(ShardFormatError):
        read_gamma(path, (1, 0), p23)


def test_read_gamma_truncated(tmp_path):
    p = make_params(2, 3, 7)
    hdr = ShardHeader(2, 3, 7, p.gf.poly, 1, (1, 0), 24, 80)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, zeros(8, 24))
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ShardFormatError):
        read_gamma(path, (1, 0), p)


def test_read_gamma_checks_file_size_before_payload(tmp_path, monkeypatch):
    # repair of (1,0) reads rows 0-3 only, which a short tail does not touch
    reader, made = recording_reader()
    monkeypatch.setattr(shardio, "ShardReader", reader)
    p = make_params(2, 3, 7)
    hdr = ShardHeader(2, 3, 7, p.gf.poly, 1, (1, 0), 24, 80)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, zeros(8, 24))
    blob = path.read_bytes()
    for bad in (blob[:-8], blob + b"\0\0"):
        path.write_bytes(bad)
        with pytest.raises(ShardFormatError, match="header implies"):
            read_gamma(path, (1, 0), p)
        assert made[-1].bytes_read == HEADER_LEN  # no payload read
        with pytest.raises(ShardFormatError, match="header implies"):
            read_shard(path)


@settings(max_examples=60, deadline=None)
@given(qtm=st.sampled_from([(2, 2, 5), (2, 3, 7), (3, 2, 4)]),
       eights=st.integers(0, 5), block=st.sampled_from([8, 16, 24]),
       seed=st.integers(0, 2**32 - 1))
def test_block_layout_property(qtm, eights, block, seed):
    p = make_params(*qtm)
    stripes = 8 * eights
    rows = random_rows(p, seed, stripes)
    hdr = ShardHeader(p.q, p.t, p.gf.m, p.gf.poly, 1, (1, 0), stripes, 0)
    blocks = -(-stripes // block)
    reader, made = recording_reader()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(shardio, "BLOCK_STRIPES", block), \
            mock.patch.object(shardio, "ShardReader", reader):
        path = Path(tmp) / "s.msrc"
        write_whole(path, hdr, rows)
        got_hdr, got = read_shard(path)
        assert got_hdr == hdr and got == rows
        assert made[-1].reads == 1 + blocks  # the header, then one read per block
        for failed in p.nodes():
            _, sent, nbytes = read_gamma(path, failed, p)
            assert sent == rows.take(gamma_ordinals(p, failed))
            assert nbytes == HEADER_LEN + p.beta * (p.gf.m * stripes // 8 + 4 * blocks)
            # the header, then one read per run per block
            assert made[-1].reads == 1 + blocks * len(p.gamma_runs(failed))


def test_counting_reader(tmp_path):
    # a ShardReader counts the header read on opening, then every payload read
    p = make_params(2, 3, 7)
    hdr = ShardHeader(2, 3, 7, p.gf.poly, 1, (1, 0), 24, 80)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, zeros(8, 24))
    with open_shard(path) as shard:
        assert (shard.bytes_read, shard.reads) == (HEADER_LEN, 1)
        list(shard.blocks([(1, 2), (5, 1)]))
        assert (shard.bytes_read, shard.reads) == (HEADER_LEN + 3 * payload_bytes(24, 1, 7), 3)


def test_crc32_file(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"hello world")
    assert crc32_file(path) == 0x0D4A1185
