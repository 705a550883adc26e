"""Block-at-a-time CLI commands: byte-identical to the whole-file paths,
memory flat in the input size, and fail-closed under injected faults."""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import random
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import stripes_of
from msrcode import codec, find_code, shardio
from msrcode.cli import EXIT_IO, EXIT_OK, EXIT_VERIFY, main
from msrcode.gf import Block
from msrcode.parity import build_system
from msrcode.shardio import Manifest, crc32_file, shard_filename

SRC = Path(__file__).resolve().parents[1] / "src"
MiB = 1 << 20


class ProbeFile:
    """A file from shardio's `open` that counts the bytes read and raises
    OSError on the write after `writes_left` more have gone through."""

    def __init__(self, f, probe):
        self._f = f
        self._probe = probe

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def read(self, size=-1):
        data = self._f.read(size)
        self._probe.read[self._f.name] = self._probe.read.get(self._f.name, 0) + len(data)
        return data

    def write(self, data):
        if self._probe.writes_left == 0:
            raise OSError(errno.ENOSPC, "injected write failure")
        self._probe.writes_left -= 1
        return self._f.write(data)

    def __getattr__(self, attr):
        return getattr(self._f, attr)


class Probe:
    def __init__(self, writes_left=-1):
        self.writes_left = writes_left  # -1: never fail
        self.read: dict[str, int] = {}

    def open(self, *args, **kwargs):
        return ProbeFile(open(*args, **kwargs), self)


def new_store(store: Path, params) -> None:
    store.mkdir()
    Manifest.for_params(params).write(store / shardio.MANIFEST_NAME)


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# -- streamed == whole-file ----------------------------------------------------------


@pytest.mark.parametrize("block", [8, 16, 24])
@pytest.mark.parametrize("qtm", [(2, 2, 3), (2, 3, 7), (3, 2, 8), (2, 2, 12)])
def test_streamed_shards_match_whole_file_encode(tmp_path, monkeypatch, qtm, block):
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", block)
    p = find_code(*qtm)
    sys_ = build_system(p)
    block_bytes = block * p.message_len * p.gf.m // 8
    store = tmp_path / "store"
    new_store(store, p)
    probe = Probe()
    monkeypatch.setattr(shardio, "open", probe.open, raising=False)
    for length in (0, 1, block_bytes, 3 * block_bytes + 5):
        data = os.urandom(length)
        src = tmp_path / "in.bin"
        src.write_bytes(data)
        assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
        assert probe.read == {}  # encode reads no shard back
        man = Manifest.read(store / shardio.MANIFEST_NAME)
        stripes = shardio.stripe_count_for(length, p.message_len, p.gf.m)
        # the whole file encoded as one block, whose columns cut into blocks
        # of stripes are what the streamed encode wrote: the input bytes of
        # each block are its planes, so the whole block is theirs side by side
        planes, lo, at = [0] * (p.message_len * p.gf.m), 0, 0
        for width, nbytes in shardio.message_blocks(length, p):
            piece = shardio.symbols_from_bytes(data[at : at + nbytes], p.gf.m, p.message_len,
                                               width)
            planes = [a | b << lo for a, b in zip(planes, piece.planes)]
            lo, at = lo + width, at + nbytes
        columns = codec.encode_batch(Block(p.gf.m, stripes, planes), sys_)
        ref = tmp_path / "ref.msrc"
        for node in p.nodes():  # the whole-file encode, written block by block
            blocks = [{node: stripes_of(columns[node], lo, min(lo + block, stripes))}
                      for lo in range(0, stripes, block)]
            with contextlib.ExitStack() as renames:
                shardio.write_shard({ref: man.header_for(node)}, blocks, renames)
            assert (store / shard_filename(node)).read_bytes() == ref.read_bytes()
            assert man.checksums[node] == crc32_file(ref)
        assert not list(store.glob("*.tmp"))
        # decode from the last k nodes (no full systematic set) reads each
        # shard once, all of it
        shards = [str(store / shard_filename(nd)) for nd in list(p.nodes())[-p.k:]]
        out = tmp_path / "out.bin"
        probe.read.clear()
        assert main(["decode", str(out), *shards]) == EXIT_OK
        assert out.read_bytes() == data
        assert probe.read == {s: os.path.getsize(s) for s in shards}
        probe.read.clear()


def test_blocks_are_the_payload_as_stored(tmp_path, monkeypatch):
    # one layout from disk to kernel: a block read back holds the planes of
    # its payload bytes as stored, each row followed on disk by its 4-byte
    # BLAKE2b;
    # the input ends 40 bits into a stripe, so the last block is one stripe
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 8)
    p = find_code(2, 3, 7)
    store = tmp_path / "store"
    new_store(store, p)
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(3 * 8 * p.message_len * p.gf.m // 8 + 5))
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    for node in p.nodes():
        path = store / shard_filename(node)
        payload = path.read_bytes()[shardio.HEADER_LEN :]
        with shardio.open_shard(path) as shard:
            blocks = list(shard.blocks([(0, p.alpha)]))
        assert [(b.m, b.rows, b.stripes) for b in blocks] == \
            [(p.gf.m, p.alpha, 8)] * 3 + [(p.gf.m, p.alpha, 1)]
        rows, at = [], 0
        for row_bytes in [p.gf.m * 8 // 8] * (3 * p.alpha) + [1] * p.alpha:
            rows.append(payload[at : at + row_bytes + 4])
            at += row_bytes + 4
        assert at == len(payload)
        assert all(hashlib.blake2b(row[:-4], digest_size=4).digest() == row[-4:]
                   for row in rows)
        assert [block[r : r + 1].to_bytes() for block in blocks for r in range(p.alpha)] == \
            [row[:-4] for row in rows]


# -- memory --------------------------------------------------------------------------


# ru_maxrss also counts the address space a child starts from, so a CLI
# spawned straight from this (large) test process would report this
# process's peak; a small launcher keeps the figure to the CLI's own
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mib(args: list[str]) -> float:
    launched = subprocess.run([sys.executable, "-c", LAUNCHER,
                               sys.executable, "-m", "msrcode.cli", *args],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, check=True)
    code, maxrss_kib = map(int, launched.stdout.split())
    assert code == EXIT_OK, (args, launched.stderr)
    return maxrss_kib / 1024


def test_cli_peak_rss_does_not_grow_with_the_input(tmp_path):
    store = tmp_path / "store"
    new_store(store, find_code(3, 3, 8))
    shards = [str(store / shard_filename(nd)) for nd in [(1, 0), (2, 1), (2, 2),
                                                         (3, 0), (3, 1), (3, 2)]]
    rss = {}
    for mib in (1, 12):
        src = tmp_path / "in.bin"
        src.write_bytes(os.urandom(mib * MiB))
        out = tmp_path / "out.bin"
        rss[mib] = (peak_rss_mib(["encode", str(src), "--out-dir", str(store)]),
                    peak_rss_mib(["decode", str(out), *shards]))
        assert out.read_bytes() == src.read_bytes()
    for small, large in zip(rss[1], rss[12]):
        assert large - small < 10, rss


@pytest.mark.parametrize("qtm", [(3, 3, 8), (2, 3, 3)])
def test_cli_working_set_is_a_few_blocks(tmp_path, qtm):
    # the traced peak of an in-process encode and decode of 3.5 blocks stays
    # under 4 blocks' worth of uint16 message symbols (8 input blocks at
    # m = 8): the block path holds each block's symbols a small number of
    # times and drops every block before it reads the next
    p = find_code(*qtm)
    store = tmp_path / "store"
    new_store(store, p)
    symbol_block = shardio.BLOCK_STRIPES * p.message_len * 2
    src, out = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(os.urandom(7 * shardio.BLOCK_STRIPES * p.message_len * p.gf.m // 16))
    shards = [str(store / shard_filename(nd)) for nd in list(p.nodes())[-p.k:]]
    for argv in (["encode", str(src), "--out-dir", str(store)],
                 ["decode", str(out), *shards]):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 4 * symbol_block, (argv[0], peak / symbol_block)
    assert out.read_bytes() == src.read_bytes()


# -- fault injection -----------------------------------------------------------------

CODES = [(2, 2), (2, 3)]


@pytest.fixture(scope="module")
def codes():
    return {qt: find_code(*qt) for qt in CODES}


def corrupt(blob: bytes, how: str, pick, is_text: bool) -> bytes:
    pos = pick.randrange(max(len(blob), 1))
    if how == "flip":
        # one bit: in a payload only a checksum can catch it (a row's digest
        # or the whole file's CRC-32); bit 7 makes the manifest invalid UTF-8
        flipped = blob[pos] ^ 1 << pick.choice([0, 1, 2, 7])
        return blob[:pos] + bytes([flipped]) + blob[pos + 1:]
    if how == "cut":
        return blob[:pos]
    if how == "drop line" and is_text:
        lines = blob.splitlines(keepends=True)
        del lines[pick.randrange(len(lines))]
        return b"".join(lines)
    return blob[:pos] + blob[pos + 1:]  # drop a byte


def failing_at(fn, calls_left: int):
    """`fn`, but raising OSError on the call after `calls_left` more."""
    left = [calls_left]

    def call(*args, **kwargs):
        if left[0] == 0:
            raise OSError(errno.EIO, f"injected {fn.__name__} failure")
        left[0] -= 1
        return fn(*args, **kwargs)
    return call


# flips weigh triple: a cut or dropped byte always fails the file-size check,
# while a flipped payload bit can pass every check but the checksum
SYSCALLS = ("fsync", "replace")
JOBS = [("encode", fault) for fault in ("write",) + SYSCALLS] + [
    (command, fault) for command in ("decode", "repair")
    for fault in ("flip",) * 3 + ("cut", "drop byte", "drop line", "write") + SYSCALLS]


@settings(max_examples=200, deadline=None)
@given(qt=st.sampled_from(CODES), old=st.binary(min_size=1, max_size=300),
       new=st.binary(max_size=300), job=st.sampled_from(JOBS), seed=st.integers(0, 2**32 - 1))
def test_faults_give_right_bytes_or_exit_2_3_and_touch_nothing(codes, qt, old, new, job, seed):
    """Run encode, decode or repair on a good store after damaging one of
    the files it reads (a shard or the manifest), or with an OSError at one
    of its writes, fsyncs or renames.  Either the command exits 0 with the
    right bytes, or it exits 2 or 3 with no .tmp file left behind, and every
    file is as it was before.  The exceptions: a failed rename in encode,
    which renames its shards one by one, leaves the manifest as it was, and
    any k shards decode to the old bytes or exit 2, never to wrong bytes;
    and a failed fsync of the directory, which comes after every rename,
    exits 3 with the files as on success.  encode reads no shard, so it
    only meets write-side faults."""
    command, fault = job
    pick = random.Random(seed)  # uniform positions, unlike a Hypothesis-drawn Random
    p = codes[qt]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(shardio, "BLOCK_STRIPES", 8):
        root = Path(tmp)
        store = root / "store"
        new_store(store, p)
        src = root / "in.bin"
        src.write_bytes(old)
        assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
        good = snapshot(store)
        out = root / "out.bin"
        out.write_bytes(b"an earlier output")
        nodes = list(p.nodes())
        failed = pick.choice(nodes)
        read = {"encode": [], "decode": pick.sample(nodes, p.k),
                "repair": [nd for nd in nodes if nd != failed]}[command]
        if command == "repair":
            (store / shard_filename(failed)).unlink()
        probe = Probe()
        syscall = contextlib.nullcontext()
        late = False
        if fault == "write":
            probe.writes_left = pick.randrange(16)
        elif fault in SYSCALLS:  # encode makes n + 1 of each call, the others 1
            calls = p.n + 1 if command == "encode" else 1
            fail_at = pick.randrange(calls + 1)
            # the next fsync is the directory's, made once every rename is done
            late = fault == "fsync" and fail_at == calls
            syscall = mock.patch.object(os, fault, failing_at(getattr(os, fault), fail_at))
        else:  # damage the manifest or a shard the command reads
            victims = [shardio.MANIFEST_NAME] + [shard_filename(nd) for nd in read]
            victim = store / pick.choice(victims)
            victim.write_bytes(corrupt(victim.read_bytes(), fault, pick,
                                       victim.name == shardio.MANIFEST_NAME))
        if command == "encode":
            src.write_bytes(new)
        before = snapshot(root)
        argv = {
            "encode": ["encode", str(src), "--out-dir", str(store)],
            "decode": ["decode", str(out), *(str(store / shard_filename(nd)) for nd in read)],
            "repair": ["repair", "--node", f"{failed[0]},{failed[1]}", "--out-dir", str(store)],
        }[command]
        with mock.patch.object(shardio, "open", probe.open, create=True), syscall:
            code = main(argv)
        event(f"{command} after {fault}: exit {code}")
        after = snapshot(root)
        assert not [name for name in after if name.endswith(".tmp")]
        if late:  # the files are as on success; only their renames may not last
            assert code == EXIT_IO
        if code != EXIT_OK and not late:
            assert code in (EXIT_VERIFY, EXIT_IO)
            if (command, fault) != ("encode", "replace"):
                assert after == before
                return
            manifest = f"store/{shardio.MANIFEST_NAME}"
            assert after[manifest] == before[manifest]
            for shards in (nodes[:p.k], nodes[-p.k:]):
                decoded = root / "check.bin"
                code = main(["decode", str(decoded),
                             *(str(store / shard_filename(nd)) for nd in shards)])
                event(f"decode after a failed encode rename: exit {code}")
                assert code == EXIT_VERIFY or (code == EXIT_OK and decoded.read_bytes() == old)
        elif command == "decode":
            assert out.read_bytes() == old
        elif command == "repair":
            name = shard_filename(failed)
            assert after[f"store/{name}"] == good[name]
            assert {k: v for k, v in after.items() if k != f"store/{name}"} == before
        else:
            decoded = root / "check.bin"
            shards = [str(store / shard_filename(nd)) for nd in nodes[:p.k]]
            assert main(["decode", str(decoded), *shards]) == EXIT_OK
            assert decoded.read_bytes() == new


def test_each_command_fsyncs_its_directory_once_after_its_renames(tmp_path, monkeypatch):
    # a rename lasts only once its directory is fsynced: each command fsyncs
    # the directory it renamed into, once, after its last rename there
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 8)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def ident(path):
        st = os.stat(path)
        return st.st_dev, st.st_ino

    def fsync(fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            events.append(("fsync", (st.st_dev, st.st_ino)))
        return real_fsync(fd)

    def replace(src, dst):
        real_replace(src, dst)
        events.append(("rename", ident(Path(dst).parent)))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    store, elsewhere = tmp_path / "store", tmp_path / "elsewhere"
    elsewhere.mkdir()
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(5 * 8 * 8 * 3 // 8))  # 5 blocks at (2,2,3)
    shards = [str(store / shard_filename(nd)) for nd in [(1, 1), (2, 0)]]
    for argv, directory in [
        (["init", "--q", "2", "--t", "2", "--out-dir", str(store)], store),
        (["encode", str(src), "--out-dir", str(store)], store),
        (["repair", "--node", "1,0", "--out-dir", str(store)], store),
        (["decode", str(elsewhere / "out.bin"), *shards], elsewhere),
    ]:
        if argv[0] == "repair":
            (store / shard_filename((1, 0))).unlink()
        events.clear()
        assert main(argv) == EXIT_OK
        synced = ("fsync", ident(directory))
        assert [e for e in events if e[0] == "fsync"] == [synced], argv[0]
        assert ("rename", ident(directory)) in events and events[-1] == synced, argv[0]
    assert (elsewhere / "out.bin").read_bytes() == src.read_bytes()


def test_every_file_is_fsynced_before_the_first_rename(tmp_path, monkeypatch):
    # a rename must not name a file whose data is not yet durable: every
    # file a command renames into place, each shard included, is fsynced
    # before the command's first rename
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 8)
    fsynced, renamed = set(), []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        if not renamed:
            st = os.fstat(fd)
            fsynced.add((st.st_dev, st.st_ino))
        return real_fsync(fd)

    def replace(src, dst):
        st = os.stat(src)
        renamed.append((st.st_dev, st.st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    store, src = tmp_path / "store", tmp_path / "in.bin"
    src.write_bytes(os.urandom(5 * 8 * 8 * 3 // 8))  # 5 blocks at (2,2,3)
    for argv, count in [
        (["init", "--q", "2", "--t", "2", "--out-dir", str(store)], 1),
        (["encode", str(src), "--out-dir", str(store)], 5),  # 4 shards, the manifest
        (["repair", "--node", "1,0", "--out-dir", str(store)], 1),
        (["decode", str(tmp_path / "out.bin"), str(store / shard_filename((1, 1))),
          str(store / shard_filename((2, 0)))], 1),
    ]:
        if argv[0] == "repair":
            (store / shard_filename((1, 0))).unlink()
        fsynced.clear()
        renamed.clear()
        assert main(argv) == EXIT_OK
        assert len(set(renamed)) == count and set(renamed) <= fsynced, argv[0]
