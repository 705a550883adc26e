"""Shard header/manifest formats, bit packing, and partial-read accounting."""

import contextlib
import random
import re
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrcode import make_params, shardio
from msrcode.shardio import (
    BLOCK_STRIPES,
    HEADER_LEN,
    CountingReader,
    Manifest,
    ShardFormatError,
    ShardHeader,
    bytes_from_symbols,
    crc32_file,
    gamma_runs,
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


def test_header_round_trip_bit_exact():
    for hdr in [
        ShardHeader(2, 3, 7, 0x89, 1, (1, 0), 0, 0),
        ShardHeader(3, 2, 4, 0b10011, 2, (2, 2), 12345, 987654321),
        ShardHeader(2, 2, 16, 0x1100B, 77, (2, 1), 2**31 - 1, 2**63 - 1),
    ]:
        packed = hdr.pack()
        assert ShardHeader.unpack(packed) == hdr
        assert ShardHeader.unpack(packed).pack() == packed


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
    man = Manifest(2, 3, 7, 0x89, 1, stripe_count=9, file_length=55)
    assert man.matches_header(man.header_for((2, 1)))
    other = ShardHeader(2, 3, 7, 0x89, 1, (2, 1), 8, 55)
    assert not man.matches_header(other)


def test_shard_filename():
    assert shard_filename((3, 1)) == "shard_3_1.msrc"


# -- bit packing ---------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 3, 5, 7, 8, 13, 16])
def test_packing_round_trip(m):
    rng = random.Random(m)
    for length in (0, 1, 7, 64, 300):
        data = bytes(rng.randrange(256) for _ in range(length))
        total = -(-(length * 8) // m)  # symbols to cover all bits
        symbols = symbols_from_bytes(data, m, total)
        assert symbols.shape == (total,)
        assert symbols.dtype == np.uint16
        assert all(int(s) < (1 << m) for s in symbols)
        assert bytes_from_symbols(symbols, m, length) == data


def reference_symbols(data: bytes, m: int, total: int) -> list[int]:
    """Bit-by-bit packing: LSB-first bits, m per symbol, zero-filled."""
    bits = [(byte >> i) & 1 for byte in data for i in range(8)]
    bits += [0] * max(0, total * m - len(bits))
    return [sum(bits[s * m + b] << b for b in range(m)) for s in range(total)]


def reference_bytes(stream: list[int], m: int, byte_length: int) -> bytes:
    """Bit-by-bit unpacking: m LSB-first bits per symbol, truncated."""
    bits = [(s >> b) & 1 for s in stream for b in range(m)]
    bits += [0] * (-len(bits) % 8)
    return bytes(sum(bits[i + b] << b for b in range(8))
                 for i in range(0, len(bits), 8))[:byte_length]


@pytest.mark.parametrize("m", range(1, 17))
def test_packing_matches_bitwise_reference(m):
    rng = random.Random(100 + m)
    data = bytes(rng.randrange(256) for _ in range(50))
    for total in (0, 400 // m - 1, 400 // m + 3):  # short of, and past, the data
        symbols = symbols_from_bytes(data, m, total)
        assert symbols.dtype == np.uint16
        assert symbols.tolist() == reference_symbols(data, m, total)
        for length in (0, 7, total * m // 8):
            assert bytes_from_symbols(symbols, m, length) == \
                reference_bytes(symbols.tolist(), m, length)


@pytest.mark.parametrize("m", range(1, 17))
def test_unpacking_a_block_follows_the_stripe_stream(m):
    # a (message_len, stripes) block, as decode passes it, with a symbol
    # count that is not a multiple of 8: bytes in stripe-by-stripe order
    rng = np.random.default_rng(m)
    for message_len, stripes in [(5, 3), (9, 1), (3, 7), (8, 2)]:
        block = rng.integers(0, 1 << m, size=(message_len, stripes)).astype(np.uint16)
        stream = block.T.reshape(-1).tolist()
        length = len(stream) * m // 8
        assert bytes_from_symbols(block, m, length) == reference_bytes(stream, m, length)
        assert symbols_from_bytes(reference_bytes(stream, m, length + 1), m,
                                  len(stream)).tolist() == stream


@pytest.mark.parametrize("m", range(1, 17))
def test_packing_all_ones_has_no_shift_overflow(m):
    # every bit set: a byte shifted in a type too narrow for it (uint8 << 8
    # is 0 under numpy 1.24 casting as under 2.x) would drop bits
    symbols = symbols_from_bytes(b"\xff" * (3 * m), m, 24)
    assert symbols.dtype == np.uint16
    assert symbols.tolist() == [(1 << m) - 1] * 24
    assert bytes_from_symbols(symbols, m, 3 * m) == b"\xff" * (3 * m)
    assert bytes_from_symbols(symbols.reshape(4, 6), m, 3 * m) == b"\xff" * (3 * m)


@pytest.mark.parametrize("m", [1, 3, 8, 13])
def test_unpacking_out_of_field_symbol_is_value_error(m):
    with pytest.raises(ValueError, match="not an element of GF"):
        bytes_from_symbols(np.array([[0, 1 << m]], dtype=np.uint16), m, 2)


def test_packing_m16_is_two_byte_little_endian():
    data = bytes(range(32))
    symbols = symbols_from_bytes(data, 16, 16)
    assert np.array_equal(symbols, np.frombuffer(data, dtype="<u2"))


def test_packing_zero_fills_past_data():
    symbols = symbols_from_bytes(b"\xff", 8, 4)
    assert [int(s) for s in symbols] == [255, 0, 0, 0]


def test_stripe_count_for():
    p = make_params(2, 2, 16)  # B = 8 symbols
    assert stripe_count_for(0, p.message_len, 16) == 0
    assert stripe_count_for(16, p.message_len, 16) == 1  # exactly B*2 bytes
    assert stripe_count_for(17, p.message_len, 16) == 2
    p7 = make_params(2, 3, 7)  # B = 32 symbols -> 224 bits = 28 bytes/stripe
    assert stripe_count_for(28, p7.message_len, 7) == 1
    assert stripe_count_for(29, p7.message_len, 7) == 2
    assert stripe_count_for(1 << 20, p7.message_len, 7) == 37450


# -- shard files ------------------------------------------------------------------


def whole_blocks(node, rows):
    """The stream of blocks of one shard's whole (alpha, stripes) rows."""
    width = shardio.BLOCK_STRIPES
    return [{node: rows[:, lo : lo + width]} for lo in range(0, rows.shape[1], width)]


def write_whole(path, hdr, rows):
    """Write one shard from its whole (alpha, stripe_count) rows, block by
    block."""
    with contextlib.ExitStack() as renames:
        write_shard({path: hdr}, whole_blocks(hdr.node, rows), renames)


def test_shard_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 5, 133)
    rows = rng.integers(0, 128, size=(8, 5)).astype(np.uint16)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, rows)
    got_hdr, got_rows = read_shard(path)
    assert got_hdr == hdr
    assert np.array_equal(got_rows, rows)


def test_shard_truncated_payload_detected(tmp_path):
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 2, 50)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, np.zeros((8, 2), dtype=np.uint16))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ShardFormatError):
        read_shard(path)


def test_out_of_range_symbol_detected(tmp_path):
    # a payload value >= 2^m is malformed even when lengths check out
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 1, 20)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, np.full((8, 1), 0xFFFF, dtype=np.uint16))
    with pytest.raises(ShardFormatError, match="out of range"):
        read_shard(path)
    with pytest.raises(ShardFormatError, match="out of range"):
        read_gamma(path, (1, 0), make_params(2, 3, 7))


def test_write_shard_stripe_count_mismatch(tmp_path):
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 3, 50)
    with pytest.raises(ValueError):
        write_whole(tmp_path / "s.msrc", hdr, np.zeros((8, 2), dtype=np.uint16))


def test_write_shard_renames_only_complete_shards(tmp_path):
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 5, 133)
    path = tmp_path / "s.msrc"
    path.write_bytes(b"earlier")
    with pytest.raises(ValueError, match="0 of 5 stripes written"):
        write_whole(path, hdr, np.zeros((8, 0), dtype=np.uint16))
    with pytest.raises(ValueError, match="is not the next block"):
        write_whole(path, hdr, np.zeros((8, 4), dtype=np.uint16))
    with pytest.raises(ValueError, match="is not the next block"):  # the old (stripes, alpha)
        write_whole(path, hdr, np.zeros((5, 8), dtype=np.uint16))

    def failing():
        yield {hdr.node: np.zeros((8, 5), dtype=np.uint16)}
        raise OSError("input went away")

    with pytest.raises(OSError, match="went away"):
        with contextlib.ExitStack() as renames:
            write_shard({path: hdr}, failing(), renames)
    assert [p.name for p in tmp_path.iterdir()] == ["s.msrc"]
    assert path.read_bytes() == b"earlier"
    with contextlib.ExitStack() as renames:
        crc = write_shard({path: hdr}, [{hdr.node: np.ones((8, 5), dtype=np.uint16)}], renames)
        assert path.read_bytes() == b"earlier"  # renamed when the stack closes
    assert crc == {hdr.node: crc32_file(path)}
    assert np.array_equal(read_shard(path)[1], np.ones((8, 5)))
    with pytest.raises(RuntimeError):
        with contextlib.ExitStack() as renames:
            write_shard({path: hdr}, [{hdr.node: np.zeros((8, 5), dtype=np.uint16)}], renames)
            raise RuntimeError("checksum mismatch")
    assert [p.name for p in tmp_path.iterdir()] == ["s.msrc"]
    assert np.array_equal(read_shard(path)[1], np.ones((8, 5)))


def test_payload_is_row_contiguous_per_block(tmp_path, monkeypatch):
    assert BLOCK_STRIPES == 4096  # part of format version 2
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 3)
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 128, size=(8, 7)).astype(np.uint16)
    hdr = ShardHeader(2, 3, 7, 0x89, 1, (2, 0), 7, 196)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, rows)
    blob = path.read_bytes()
    assert blob[:HEADER_LEN] == hdr.pack() and blob[4] == 2
    # blocks [0,3), [3,6), [6,7); inside each, row after row
    assert blob[HEADER_LEN:] == b"".join(
        rows[:, lo:hi].astype("<u2").tobytes() for lo, hi in [(0, 3), (3, 6), (6, 7)])
    assert np.array_equal(read_shard(path)[1], rows)


# -- partial reads -----------------------------------------------------------------


def recording_reader():
    """A CountingReader subclass that keeps its instances, so a test can
    inspect the one read_gamma used, and the list they go to."""
    made = []

    class Recording(CountingReader):
        def __init__(self, f):
            super().__init__(f)
            made.append(self)

    return Recording, made


def test_gamma_runs_coalesced():
    p = make_params(2, 3, 7)
    assert gamma_runs((1, 0), p) == [(0, 4)]  # rows 0..3 are contiguous
    assert gamma_runs((1, 1), p) == [(4, 4)]
    assert gamma_runs((3, 1), p) == [(1, 1), (3, 1), (5, 1), (7, 1)]
    assert gamma_runs((2, 0), p) == [(0, 2), (4, 2)]
    for node in p.nodes():
        assert sum(length for _, length in gamma_runs(node, p)) == p.beta


def test_read_gamma_matches_full_read(tmp_path, sys23):
    p = sys23.params
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 128, size=(p.alpha, 11)).astype(np.uint16)
    hdr = ShardHeader(2, 3, 7, p.gf.poly, sys23.c0, (2, 1), 11, 616)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, rows)
    for failed in [(1, 0), (3, 0), (3, 1)]:
        got_hdr, gamma_rows, nbytes = read_gamma(path, failed, p)
        assert got_hdr == hdr
        idx = [p.row_ordinal(r) for r in p.gamma_rows(failed)]
        assert np.array_equal(gamma_rows, rows[idx])
        # exact accounting: header plus 2*beta bytes per stripe, nothing else
        assert nbytes == HEADER_LEN + 11 * 2 * p.beta


def test_read_gamma_rejects_foreign_params(tmp_path):
    p23 = make_params(2, 3, 7)
    p22 = make_params(2, 2, 5)
    hdr = ShardHeader(2, 2, 5, p22.gf.poly, 1, (1, 0), 1, 4)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, np.zeros((4, 1), dtype=np.uint16))
    with pytest.raises(ShardFormatError):
        read_gamma(path, (1, 0), p23)


def test_read_gamma_truncated(tmp_path):
    p = make_params(2, 3, 7)
    hdr = ShardHeader(2, 3, 7, p.gf.poly, 1, (1, 0), 3, 80)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, np.zeros((8, 3), dtype=np.uint16))
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ShardFormatError):
        read_gamma(path, (1, 0), p)


def test_read_gamma_checks_file_size_before_payload(tmp_path, monkeypatch):
    # repair of (1,0) reads rows 0-3 only, which a short tail does not touch
    reader, made = recording_reader()
    monkeypatch.setattr(shardio, "CountingReader", reader)
    p = make_params(2, 3, 7)
    hdr = ShardHeader(2, 3, 7, p.gf.poly, 1, (1, 0), 3, 80)
    path = tmp_path / "s.msrc"
    write_whole(path, hdr, np.zeros((8, 3), dtype=np.uint16))
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
       stripes=st.integers(0, 20), block=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_block_layout_property(qtm, stripes, block, seed):
    p = make_params(*qtm)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 1 << p.gf.m, size=(p.alpha, stripes)).astype(np.uint16)
    hdr = ShardHeader(p.q, p.t, p.gf.m, p.gf.poly, 1, (1, 0), stripes, 0)
    blocks = -(-stripes // block)
    reader, made = recording_reader()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(shardio, "BLOCK_STRIPES", block), \
            mock.patch.object(shardio, "CountingReader", reader):
        path = Path(tmp) / "s.msrc"
        write_whole(path, hdr, rows)
        got_hdr, got = read_shard(path)
        assert got_hdr == hdr and np.array_equal(got, rows)
        for failed in p.nodes():
            _, gamma_rows, nbytes = read_gamma(path, failed, p)
            idx = [p.row_ordinal(r) for r in p.gamma_rows(failed)]
            assert np.array_equal(gamma_rows, rows[idx])
            assert nbytes == HEADER_LEN + 2 * p.beta * stripes
            # the header, then one read per run per block
            assert made[-1].reads == 1 + blocks * len(gamma_runs(failed, p))


def test_counting_reader(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(bytes(range(100)))
    with open(path, "rb") as f:
        reader = CountingReader(f)
        reader.read(10)
        reader.seek(50)
        assert reader.read(5) == bytes(range(50, 55))
        assert reader.bytes_read == 15


def test_crc32_file(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"hello world")
    assert crc32_file(path) == 0x0D4A1185
