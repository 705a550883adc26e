"""Shard format v3 pinned byte for byte: a fixed seeded input, encoded by
the CLI, must give shards and a manifest with exactly these SHA-256s, and
those shards must still decode and repair.  A change to the field tables,
the plans, the bit planes or the block layout that alters a single byte
of what encode writes fails here, before any older store becomes
unreadable.

Each case has more than one 4096-stripe payload block and ends in a
partial block whose last stripes are only partly filled with input.

The layout itself is checked against the scalar encoder: a bitwise reader
written here, which shares no code with the library's Block, unpacks each
stripe of every shard, and each stripe's columns must be what
codec.encode makes of that stripe's message, cut from the input by the
same bitwise rule."""

from __future__ import annotations

import hashlib
import random

import pytest

from msrcode import build_system, codec, find_code, shardio
from msrcode.cli import EXIT_OK, main
from msrcode.shardio import HEADER_LEN, MANIFEST_NAME, Manifest, shard_filename

# (q, t, m) -> (input seed, input length, {file name: SHA-256})
PINNED = {
    # 12 input bytes per stripe: 8,610 stripes, two full blocks and a third
    (2, 3, 3): (23, 2 * 49152 + 5007, {
        "manifest.txt": "4311a76f9693599f01cd7498a2f40aa70bb80a3105efefe884b72feb3c0d345a",
        "shard_1_0.msrc": "dbfc04dfb2a2302dbfad9a8d333667177e666942964764eb26478adcc8c961b0",
        "shard_1_1.msrc": "5f4bfccf2d8c7396c7f81b2c96582e836878ee823b6bbc31d80087c46d588415",
        "shard_2_0.msrc": "e8488b4a4989876e10112300cfe91cd7c0e7354bcbe91b750e1193a6534925bc",
        "shard_2_1.msrc": "8f6d7546cd5b76496ac65a7eaca53dd540aeda2d623ffc87ede8a19aed560fed",
        "shard_3_0.msrc": "4efcc90d028dd5197a3d211aac4dadc0dad040cdb5716bf19d48248c7c75d092",
        "shard_3_1.msrc": "cde2530bbeac15bd27b5add9bf53a88b9b6c64a09ba3cf17bc52c460dfdd5605",
    }),
    # 162 input bytes per stripe: 4,714 stripes, one full block and a second
    (3, 3, 8): (338, 663552 + 100001, {
        "manifest.txt": "d330df02df19218999bce60eb0173a746b439ff9c7dd34d287109314e2f7c49e",
        "shard_1_0.msrc": "2f5ba5b2b401304b6749c89739a4bafc5d62171935e4995491ec696c8324d189",
        "shard_1_1.msrc": "0c681d1081d5fdea389f46cc4697683ef9e6a1366712e0beb2f55439efeb7b49",
        "shard_1_2.msrc": "7f907532f84cb1131d1b1f7c7e86aa9badb150def50ab7aae447e3623905c269",
        "shard_2_0.msrc": "95e646df1c97ae07867899bbd52cdc0836d52c585cc5a29d05d6eb4d23aeba5b",
        "shard_2_1.msrc": "ae358fff9bfd8df807852063b38998471d7d92dc972281b746f23e296d2e1d02",
        "shard_2_2.msrc": "f258c82c50f3b60938961c30cbcfe367aa5e904960b78fba959d3a60761234f0",
        "shard_3_0.msrc": "f078604c7ed1b6c61f4d65ac11a32b31480762008c3da73ec04ff8d64e779d65",
        "shard_3_1.msrc": "b2b21b5c8e1cf247247a9fca86619c688b7308226d50165c840a7f018a87b20b",
        "shard_3_2.msrc": "c6b6ad8f4fbaa729cf05a81573273f26ade9aa00634d3ec7911939f3eda664a3",
    }),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(PINNED), ids=lambda qtm: "q%d-t%d-m%d" % qtm)
def store(request, tmp_path_factory):
    q, t, m = request.param
    seed, length, digests = PINNED[request.param]
    root = tmp_path_factory.mktemp("pin")
    data = random.Random(seed).randbytes(length)
    (root / "input.bin").write_bytes(data)
    st = root / "store"
    assert main(["init", "--q", str(q), "--t", str(t), "--m", str(m),
                 "--out-dir", str(st)]) == EXIT_OK
    assert main(["encode", str(root / "input.bin"), "--out-dir", str(st)]) == EXIT_OK
    return root, st, data, digests


def test_shards_and_manifest_bytes_are_pinned(store):
    _, st, _, digests = store
    got = {path.name: sha256(path) for path in sorted(st.iterdir())}
    assert got == digests


def test_pinned_store_decodes_from_the_last_k_shards(store):
    root, st, data, _ = store
    p = Manifest.read(st / MANIFEST_NAME).params()
    out = root / "out.bin"
    shards = [str(st / shard_filename(nd)) for nd in list(p.nodes())[-p.k :]]
    assert main(["decode", str(out), *shards]) == EXIT_OK
    assert out.read_bytes() == data


def test_pinned_store_repairs_a_node_of_every_class(store):
    _, st, _, digests = store
    p = Manifest.read(st / MANIFEST_NAME).params()
    for i in range(1, p.t + 1):
        name = shard_filename((i, i % p.q))
        (st / name).unlink()
        assert main(["repair", "--node", f"{i},{i % p.q}", "--out-dir", str(st)]) == EXIT_OK
        assert sha256(st / name) == digests[name]


# -- the layout against the scalar encoder -----------------------------------------


def bit(data: bytes, index: int) -> int:
    """Bit `index` of a byte string, LSB-first; 0 past its end."""
    return data[index // 8] >> index % 8 & 1 if index // 8 < len(data) else 0


def unpack_shard(blob: bytes, alpha: int, m: int, stripes: int, block: int) -> list[list[int]]:
    """Reference reader: stripe s of the shard as its alpha symbols.  Each
    block of `block` stripes holds, row after row, m planes of `width` bits
    back to back in whole bytes (plane b: bit b of each stripe's symbol,
    stripe s at bit b*width + s) and then the row's 4-byte BLAKE2b."""
    columns, at = [], HEADER_LEN
    for lo in range(0, stripes, block):
        width = min(block, stripes - lo)
        rows = []
        for _ in range(alpha):
            planes = blob[at : at - (-m * width // 8)]
            assert blob[at + len(planes) : at + len(planes) + 4] == \
                hashlib.blake2b(planes, digest_size=4).digest()
            rows.append([sum(bit(planes, b * width + s) << b for b in range(m))
                         for s in range(width)])
            at += len(planes) + 4
        columns += [list(column) for column in zip(*rows)]
    assert at == len(blob)
    return columns


def message_of(data: bytes, s: int, message_len: int, m: int, block: int) -> list[int]:
    """Reference: the message of stripe s.  The input bytes of each block
    are its message planes, row after row: symbol j's bit b on local stripe
    u is bit (j*m + b)*width + u of the block's bytes."""
    lo = s - s % block
    stripes = shardio.stripe_count_for(len(data), message_len, m)
    width = min(block, stripes - lo)
    start = lo * message_len * m // 8
    piece = data[start : start - (-message_len * m * width // 8)]
    return [sum(bit(piece, (j * m + b) * width + s - lo) << b for b in range(m))
            for j in range(message_len)]


@pytest.mark.parametrize("qtm", [(2, 3, 3), (3, 3, 8), (2, 2, 16)],
                         ids=lambda qtm: "q%d-t%d-m%d" % qtm)
def test_each_stripe_of_the_shards_is_the_scalar_encode(tmp_path, monkeypatch, qtm):
    # blocks of 16 stripes; the input fills 36 stripes plus 3 bytes, so 37
    # stripes: two whole blocks, then 5 stripes, the last one partly filled,
    # whose planes are not whole bytes
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 16)
    p = find_code(*qtm)
    sys_ = build_system(p)
    data = random.Random(sum(qtm)).randbytes(9 * p.message_len * p.gf.m // 2 + 3)
    (tmp_path / "in.bin").write_bytes(data)
    st = tmp_path / "store"
    assert main(["init", "--q", str(p.q), "--t", str(p.t), "--m", str(p.gf.m),
                 "--out-dir", str(st)]) == EXIT_OK
    assert main(["encode", str(tmp_path / "in.bin"), "--out-dir", str(st)]) == EXIT_OK
    stripes = Manifest.read(st / MANIFEST_NAME).stripe_count
    assert stripes == 37
    shards = {nd: unpack_shard((st / shard_filename(nd)).read_bytes(), p.alpha, p.gf.m,
                               stripes, 16) for nd in p.nodes()}
    for s in range(stripes):
        codeword = codec.encode(message_of(data, s, p.message_len, p.gf.m, 16), sys_)
        assert {nd: shards[nd][s] for nd in p.nodes()} == codeword, s
