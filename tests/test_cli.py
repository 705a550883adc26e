"""End-to-end CLI behavior: round trips, exit codes, byte-identical repair,
and the partial-read bound on the repair path."""

import errno
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest import mock

import pytest

import msrcode
from conftest import gamma_ordinals
from msrcode import GF2M, codec, make_params, parity, shardio
from msrcode.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from msrcode.shardio import BLOCK_STRIPES, HEADER_LEN, Manifest, read_shard, shard_filename


@pytest.fixture()
def store22(tmp_path):
    """A (q=2, t=2) store with a small random file encoded."""
    store = tmp_path / "store"
    data = bytes(os.urandom(1000))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    assert main(["init", "--q", "2", "--t", "2", "--out-dir", str(store)]) == EXIT_OK
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    return store, data


def shards_in(store):
    return sorted(store.glob("shard_*.msrc"))


# -- init ---------------------------------------------------------------------


def test_init_writes_manifest(tmp_path):
    assert main(["init", "--q", "2", "--t", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    man = Manifest.read(tmp_path / "manifest.txt")
    # the sufficient-field bound guarantees m <= 5; the search may land lower
    assert (man.q, man.t, man.c0) == (2, 2, 1)
    assert man.m <= 5


def test_init_prints_its_valid_c0_count(tmp_path, capsys):
    # the live set of the field the search settles on gives the count: 56
    # of GF(2^6)'s 63 nonzero c are forbidden at (4,2), and c0 = 6 is the
    # smallest of the 7 left; the lines before it are unchanged
    assert main(["init", "--q", "4", "--t", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "initialized (q=4, t=2) over GF(2^6), poly=0x43, c0=6",
        "n=8 k=4 d=7 alpha=16 beta=4",
        "valid c0: 7 of 63",
    ]


def test_init_auto_m_escalates(tmp_path):
    assert main(["init", "--q", "3", "--t", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    man = Manifest.read(tmp_path / "manifest.txt")
    assert (man.m, man.c0) == (4, 2)


def test_init_auto_m_for_q2_t3_within_bound(tmp_path):
    # the sufficient-field bound caps the search at m=7; it lands lower
    assert main(["init", "--q", "2", "--t", "3", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert Manifest.read(tmp_path / "manifest.txt").m <= 7


def test_init_is_idempotent(tmp_path):
    main(["init", "--q", "2", "--t", "3", "--m", "7", "--out-dir", str(tmp_path)])
    first = (tmp_path / "manifest.txt").read_bytes()
    main(["init", "--q", "2", "--t", "3", "--m", "7", "--out-dir", str(tmp_path)])
    assert (tmp_path / "manifest.txt").read_bytes() == first


def test_init_refuses_an_encoded_store(store22, capsys):
    # a new manifest would drop the shards' checksums, stripe count and file
    # length, and every decode would then exit 2: init writes nothing
    store, data = store22
    before = {path.name: path.read_bytes() for path in store.iterdir()}
    assert main(["init", "--q", "2", "--t", "2", "--out-dir", str(store)]) == EXIT_USAGE
    assert "records encoded shards" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in store.iterdir()} == before
    out = store.parent / "out.bin"
    assert main(["decode", str(out), str(store / shard_filename((1, 0))),
                 str(store / shard_filename((2, 1)))]) == EXIT_OK
    assert out.read_bytes() == data


def test_init_q1_is_usage_error(tmp_path):
    assert main(["init", "--q", "1", "--t", "3", "--out-dir", str(tmp_path)]) == EXIT_USAGE


def test_init_impossible_m_is_usage_error(tmp_path):
    # (3,2) has no valid coefficient over GF(2^3)
    assert main(["init", "--q", "3", "--t", "2", "--m", "3",
                 "--out-dir", str(tmp_path)]) == EXIT_USAGE


# -- encode -------------------------------------------------------------------


def test_encode_writes_n_shards_and_checksums(store22):
    store, data = store22
    assert len(shards_in(store)) == 4
    man = Manifest.read(store / "manifest.txt")
    assert man.file_length == len(data)
    assert len(man.checksums) == 4


def test_encode_renames_n_plus_one_files_once_each(tmp_path, monkeypatch):
    # each shard and the manifest is written once, to <name>.tmp, and
    # renamed once; no temp file of a temp file is ever made
    store = tmp_path / "store"
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(1000))
    assert main(["init", "--q", "2", "--t", "2", "--out-dir", str(store)]) == EXIT_OK
    renames, opened = [], []
    real_replace = os.replace

    def replace(old, new):
        renames.append((Path(old).name, Path(new).name))
        real_replace(old, new)

    def open_(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(shardio, "open", open_, raising=False)
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    names = ["manifest.txt", *(shard_filename(nd) for nd in make_params(2, 2, 5).nodes())]
    assert sorted(renames) == sorted((name + ".tmp", name) for name in names)
    assert len(renames) == 4 + 1  # n + 1
    assert not [name for name in opened if name.endswith(".tmp.tmp")]


def test_encode_empty_file(tmp_path):
    store = tmp_path / "store"
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    main(["init", "--q", "2", "--t", "2", "--out-dir", str(store)])
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    for shard in shards_in(store):
        hdr, rows = read_shard(shard)
        assert hdr.stripe_count == 0
        assert (rows.rows, rows.stripes) == (4, 0)
    out = tmp_path / "out.bin"
    picked = shards_in(store)[:2]
    assert main(["decode", str(out), *map(str, picked)]) == EXIT_OK
    assert out.read_bytes() == b""


def test_encode_exact_stripe_at_m16(tmp_path):
    # at m=16 a stripe holds B*2 bytes, so 128 bytes are exactly 8 stripes
    store = tmp_path / "store"
    main(["init", "--q", "2", "--t", "2", "--m", "16", "--out-dir", str(store)])
    src = tmp_path / "in.bin"
    data = bytes(os.urandom(128))  # B = 8 symbols = 16 bytes per stripe
    src.write_bytes(data)
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    assert Manifest.read(store / "manifest.txt").stripe_count == 8
    out = tmp_path / "out.bin"
    picked = shards_in(store)[2:]  # the two parity shards
    assert main(["decode", str(out), *map(str, picked)]) == EXIT_OK
    assert out.read_bytes() == data


def test_encode_refuses_more_stripes_than_the_header_holds(store22, tmp_path, capsys):
    # (2,2) over GF(2^3) packs 3 bytes per stripe, so 13 GiB is over 2^32
    # stripes; the sparse input is refused before anything is read or made
    store, _ = store22
    assert Manifest.read(store / "manifest.txt").m == 3
    src = tmp_path / "huge.bin"
    src.touch()
    os.truncate(src, 13 << 30)
    before = {f.name: f.read_bytes() for f in store.iterdir()}
    with mock.patch("builtins.open", wraps=open) as opened:
        assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_USAGE
    assert [call.args[0] for call in opened.call_args_list] == [str(src)]
    assert "limit of 4294967295" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in store.iterdir()} == before


def test_encode_is_deterministic(tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(os.urandom(500)))
    blobs = []
    for name in ("a", "b"):
        store = tmp_path / name
        main(["init", "--q", "2", "--t", "2", "--out-dir", str(store)])
        main(["encode", str(src), "--out-dir", str(store)])
        blobs.append([s.read_bytes() for s in shards_in(store)])
    assert blobs[0] == blobs[1]


def test_encode_missing_input_is_io_error(store22):
    store, _ = store22
    assert main(["encode", "/nonexistent/file", "--out-dir", str(store)]) == EXIT_IO


def test_encode_pipe_is_usage_error(store22):
    # a pipe reports size 0, so streaming it would encode nothing
    store, _ = store22
    before = {f.name: f.read_bytes() for f in store.iterdir()}
    r, w = os.pipe()
    try:
        os.write(w, b"data")
        os.close(w)
        assert main(["encode", f"/dev/fd/{r}", "--out-dir", str(store)]) == EXIT_USAGE
    finally:
        os.close(r)
    assert {f.name: f.read_bytes() for f in store.iterdir()} == before


def test_encode_without_init_is_io_error(tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(b"x")
    assert main(["encode", str(src), "--out-dir", str(tmp_path)]) == EXIT_IO


def test_a_missing_manifest_gets_the_advice_of_its_command(store22, tmp_path, capsys):
    # init makes a new, empty code, so decode, which reads the manifest next
    # to its first shard, is not told to run it; encode is
    store, _ = store22
    lone = tmp_path / "lone"
    lone.mkdir()
    for nd in (1, 0), (2, 1):
        shutil.copy(store / shard_filename(nd), lone)
    capsys.readouterr()
    assert main(["decode", str(tmp_path / "out.bin"), str(lone / shard_filename((1, 0))),
                 str(lone / shard_filename((2, 1)))]) == EXIT_IO
    assert capsys.readouterr().err == (f"i/o error: {lone / 'manifest.txt'} not found; "
                                       "decode reads the manifest next to its first shard\n")
    (tmp_path / "in.bin").write_bytes(b"x")
    assert main(["encode", str(tmp_path / "in.bin"), "--out-dir", str(lone)]) == EXIT_IO
    assert capsys.readouterr().err == (f"i/o error: {lone / 'manifest.txt'} not found; "
                                       "run `msrcode init` first\n")


# -- decode -------------------------------------------------------------------


def test_decode_every_k_subset(store22, tmp_path):
    store, data = store22
    out = tmp_path / "out.bin"
    for subset in itertools.combinations(shards_in(store), 2):
        out.unlink(missing_ok=True)
        assert main(["decode", str(out), *map(str, subset)]) == EXIT_OK
        assert out.read_bytes() == data


def test_decode_wrong_shard_count(store22, tmp_path):
    store, _ = store22
    out = tmp_path / "out.bin"
    shards = shards_in(store)
    assert main(["decode", str(out), str(shards[0])]) == EXIT_USAGE
    assert main(["decode", str(out), *map(str, shards[:3])]) == EXIT_USAGE


def test_decode_duplicate_shard(store22, tmp_path):
    store, _ = store22
    shard = str(shards_in(store)[0])
    assert main(["decode", str(tmp_path / "o"), shard, shard]) == EXIT_USAGE


def test_decode_corrupted_shard_is_verification_failure(store22, tmp_path):
    store, _ = store22
    victim = shards_in(store)[0]
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0x01
    victim.write_bytes(bytes(blob))
    shards = shards_in(store)
    assert main(["decode", str(tmp_path / "o"), str(shards[0]), str(shards[1])]) == EXIT_VERIFY


def test_decode_header_mismatch_is_verification_failure(store22, tmp_path):
    store, _ = store22
    man = Manifest.read(store / "manifest.txt")
    man.stripe_count += 1
    man.write(store / "manifest.txt")
    shards = shards_in(store)
    assert main(["decode", str(tmp_path / "o"), str(shards[0]), str(shards[1])]) == EXIT_VERIFY


def test_decode_shard_naming_foreign_node_is_verification_failure(store22, tmp_path):
    # a node outside the code has no manifest checksum, so it must not get
    # past the header checks
    store, _ = store22
    victim, other = shards_in(store)[:2]
    blob = bytearray(victim.read_bytes())
    blob[12] = 9  # node_i
    victim.write_bytes(bytes(blob))
    out = tmp_path / "o"
    assert main(["decode", str(out), str(victim), str(other)]) == EXIT_VERIFY
    assert not out.exists()


@pytest.mark.parametrize("line", ["stripe_count=12x", "q=1"])
@pytest.mark.parametrize("command", ["decode", "repair", "verify"])
def test_garbled_manifest_is_verification_failure(store22, tmp_path, command, line):
    store, _ = store22
    path = store / "manifest.txt"
    key = line.split("=")[0]
    path.write_text(re.sub(rf"^{key}=.*$", line, path.read_text(), flags=re.M))
    argv = {
        "decode": ["decode", str(tmp_path / "o"), *map(str, shards_in(store)[:2])],
        "repair": ["repair", "--node", "1,0", "--out-dir", str(store)],
        "verify": ["verify", "--out-dir", str(store)],
    }[command]
    assert main(argv) == EXIT_VERIFY


@pytest.mark.parametrize("command", ["decode", "repair", "verify"])
@pytest.mark.parametrize("repeat", ["parameter", "checksum"])
def test_repeated_manifest_key_is_verification_failure(store22, tmp_path, command, repeat):
    # a key given twice fails closed, even where the last line would be right:
    # a repeated q=2, or a wrong checksum_1_0 before the right one
    store, _ = store22
    path = store / "manifest.txt"
    text = path.read_text()
    if repeat == "parameter":
        text += "q=2\n"
    else:
        right = re.search(r"^checksum_1_0=(.*)$", text, flags=re.M).group(1)
        wrong = f"{int(right, 16) ^ 1:08x}"
        text = text.replace(f"checksum_1_0={right}\n",
                            f"checksum_1_0={wrong}\nchecksum_1_0={right}\n")
    path.write_text(text)
    argv = {
        "decode": ["decode", str(tmp_path / "o"), *map(str, shards_in(store)[:2])],
        "repair": ["repair", "--node", "1,0", "--out-dir", str(store)],
        "verify": ["verify", "--out-dir", str(store)],
    }[command]
    assert main(argv) == EXIT_VERIFY


def older_version_fails(store22, tmp_path, command, version):
    """A shard of an older format version: decode and repair exit 2 and
    leave no output and no temp file."""
    store, _ = store22
    victim = store / shard_filename((2, 0))
    blob = bytearray(victim.read_bytes())
    blob[4] = version  # format version
    victim.write_bytes(bytes(blob))
    rebuilt = store / shard_filename((1, 0))
    rebuilt.unlink()
    out = tmp_path / "o"
    argv = {
        "decode": ["decode", str(out), str(victim), str(store / shard_filename((2, 1)))],
        "repair": ["repair", "--node", "1,0", "--out-dir", str(store)],
    }[command]
    assert main(argv) == EXIT_VERIFY
    assert not out.exists() and not rebuilt.exists()
    assert not list(store.glob("*.tmp"))


@pytest.mark.parametrize("command", ["decode", "repair"])
def test_version_1_shard_is_verification_failure(store22, tmp_path, command):
    older_version_fails(store22, tmp_path, command, 1)


@pytest.mark.parametrize("command", ["decode", "repair"])
def test_version_2_shard_is_verification_failure(store22, tmp_path, command):
    # format v2 stored 2 bytes per symbol; no v2 reader is kept
    older_version_fails(store22, tmp_path, command, 2)


@pytest.mark.parametrize("command", ["decode", "repair"])
def test_missing_checksum_is_verification_failure(store22, tmp_path, command):
    # without its checksum a flipped payload byte of shard (1,0) went unseen
    store, _ = store22
    path = store / "manifest.txt"
    path.write_text(re.sub(r"^checksum_1_0=.*\n", "", path.read_text(), flags=re.M))
    victim = store / shard_filename((1, 0))
    blob = bytearray(victim.read_bytes())
    blob[HEADER_LEN] ^= 1
    victim.write_bytes(bytes(blob))
    before = {f.name: f.read_bytes() for f in store.iterdir()}
    out = tmp_path / "o"
    argv = {
        "decode": ["decode", str(out), str(victim), str(store / shard_filename((2, 0)))],
        "repair": ["repair", "--node", "1,0", "--out-dir", str(store)],
    }[command]
    assert main(argv) == EXIT_VERIFY
    assert not out.exists()
    assert {f.name: f.read_bytes() for f in store.iterdir()} == before


@pytest.mark.parametrize("command", ["decode", "repair", "verify"])
def test_non_utf8_manifest_is_verification_failure(store22, tmp_path, command):
    store, _ = store22
    path = store / "manifest.txt"
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0x80
    path.write_bytes(bytes(blob))
    argv = {
        "decode": ["decode", str(tmp_path / "o"), *map(str, shards_in(store)[:2])],
        "repair": ["repair", "--node", "1,0", "--out-dir", str(store)],
        "verify": ["verify", "--out-dir", str(store)],
    }[command]
    assert main(argv) == EXIT_VERIFY
    assert not (tmp_path / "o").exists()


def test_decode_two_shards_naming_one_node_is_verification_failure(store22, tmp_path):
    # a damaged header, not a usage error: the two files differ
    store, _ = store22
    victim = store / shard_filename((1, 0))
    blob = bytearray(victim.read_bytes())
    blob[13] = 1  # node_theta: now names (1,1)
    victim.write_bytes(bytes(blob))
    out = tmp_path / "o"
    assert main(["decode", str(out), str(store / shard_filename((1, 1))),
                 str(victim)]) == EXIT_VERIFY
    assert not out.exists()


@pytest.mark.parametrize("target", ["manifest", "input shard", "other store shard"])
def test_decode_refuses_to_overwrite_its_store(store22, target):
    # decoding over the manifest or a shard destroyed the store it read
    store, _ = store22
    picked = [store / shard_filename((1, 0)), store / shard_filename((1, 1))]
    out = {
        "manifest": store.parent / store.name / ".." / store.name / "manifest.txt",
        "input shard": picked[0],
        "other store shard": store / shard_filename((2, 0)),
    }[target]
    before = {f.name: f.read_bytes() for f in store.iterdir()}
    assert main(["decode", str(out), *map(str, picked)]) == EXIT_USAGE
    assert {f.name: f.read_bytes() for f in store.iterdir()} == before


def test_decode_refuses_to_overwrite_the_store_of_any_input(store22, tmp_path):
    # a copied store B: decoding from A's shard and B's over B's manifest
    # used to pass, since only the first shard's store was refused, and
    # left B unreadable; into a file of neither store it decodes
    a, data = store22
    b = tmp_path / "copy"
    shutil.copytree(a, b)
    before = {f.name: f.read_bytes() for f in b.iterdir()}
    picked = [str(a / shard_filename((1, 0))), str(b / shard_filename((2, 1)))]
    for name in ("manifest.txt", shard_filename((1, 1))):
        assert main(["decode", str(b / name), *picked]) == EXIT_USAGE
    assert {f.name: f.read_bytes() for f in b.iterdir()} == before
    assert main(["decode", str(tmp_path / "out.bin"), *picked]) == EXIT_OK
    assert (tmp_path / "out.bin").read_bytes() == data


def test_decode_into_a_missing_directory_names_the_output(store22, tmp_path, capsys):
    # the error names the path given, not its temp file, and comes before
    # any payload is read; nothing is written
    store, _ = store22
    out = tmp_path / "nodir" / "out.bin"
    with mock.patch.object(shardio.ShardReader, "blocks") as blocks:
        assert main(["decode", str(out), *map(str, shards_in(store)[:2])]) == EXIT_IO
    assert blocks.call_count == 0
    assert capsys.readouterr().err == f"i/o error: {out}: no directory {out.parent}\n"
    assert not out.parent.exists()


def refused(store22, tmp_path, case):
    """Set up one refusal on the (2,2) store; return the argv of `case` and
    what its stderr must hold: the file at fault, or both files for two
    shards of one node."""
    store, data = store22
    shard = {nd: store / shard_filename(nd) for nd in make_params(2, 2, 3).nodes()}
    out = str(tmp_path / "out.bin")

    def relabel(nd, at, value):  # a header byte: 12 is node_i, 13 node_theta
        blob = bytearray(shard[nd].read_bytes())
        blob[at] = value
        shard[nd].write_bytes(bytes(blob))

    if case == "decode_another_code":
        other = tmp_path / "other"
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        assert main(["init", "--q", "2", "--t", "2", "--m", "8", "--out-dir", str(other)]) == 0
        assert main(["encode", str(src), "--out-dir", str(other)]) == 0
        return ["decode", out, str(shard[1, 0]), str(other / shard_filename((2, 1)))], \
            str(other / shard_filename((2, 1)))
    if case == "decode_foreign_node":
        relabel((1, 0), 12, 9)
        return ["decode", out, str(shard[1, 0]), str(shard[2, 1])], str(shard[1, 0])
    if case == "decode_one_node_twice":
        relabel((1, 0), 13, 1)
        return ["decode", out, str(shard[1, 1]), str(shard[1, 0])], \
            f"{shard[1, 1]} and {shard[1, 0]}: both headers name node (1, 1)"
    if case == "decode_checksum_line_missing":
        path = store / "manifest.txt"
        path.write_text(re.sub(r"^checksum_2_1=.*\n", "", path.read_text(), flags=re.M))
        return ["decode", out, str(shard[1, 0]), str(shard[2, 1])], "manifest"
    if case == "decode_no_manifest":
        lone = tmp_path / "lone"
        lone.mkdir()
        for nd in (1, 0), (2, 1):
            shutil.copy(shard[nd], lone)
        return ["decode", out, str(lone / shard_filename((1, 0))),
                str(lone / shard_filename((2, 1)))], str(lone / "manifest.txt")
    shard[1, 0].unlink()
    if case == "repair_mislabeled_helper":
        shard[2, 1].write_bytes(shard[2, 0].read_bytes())
    else:  # a missing helper
        shard[2, 1].unlink()
    return ["repair", "--node", "1,0", "--out-dir", str(store)], shard_filename((2, 1))


@pytest.mark.parametrize("case,code", [
    ("decode_another_code", EXIT_VERIFY), ("decode_foreign_node", EXIT_VERIFY),
    ("decode_one_node_twice", EXIT_VERIFY), ("decode_checksum_line_missing", EXIT_VERIFY),
    ("decode_no_manifest", EXIT_IO), ("repair_mislabeled_helper", EXIT_VERIFY),
    ("repair_missing_helper", EXIT_IO)])
def test_each_refusal_keeps_its_exit_code_and_names_the_file(store22, tmp_path, capsys,
                                                             case, code):
    # the header and manifest checks decode and repair make, wherever they
    # live: each exits as it did, names the shard or manifest at fault, and
    # writes nothing
    argv, named = refused(store22, tmp_path, case)
    before = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
    capsys.readouterr()
    assert main(argv) == code
    assert named in capsys.readouterr().err
    assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == before


def test_decode_has_no_manifest_option(store22, tmp_path):
    # decode reads the manifest next to its first shard; --manifest is gone
    store, _ = store22
    out = tmp_path / "out.bin"
    assert main(["decode", "--manifest", str(store / "manifest.txt"), str(out),
                 *map(str, shards_in(store)[:2])]) == EXIT_USAGE
    assert not out.exists()


# -- repair -------------------------------------------------------------------


def test_repair_every_node_byte_identical(store22):
    store, _ = store22
    for shard in shards_in(store):
        original = shard.read_bytes()
        shard.unlink()
        node = re.match(r"shard_(\d+)_(\d+)", shard.name)
        arg = f"{node.group(1)},{node.group(2)}"
        assert main(["repair", "--node", arg, "--out-dir", str(store)]) == EXIT_OK
        assert shard.read_bytes() == original


def test_repair_reports_partial_read_bound(store22, capsys):
    store, _ = store22
    man = Manifest.read(store / "manifest.txt")
    p = man.params()
    (store / shard_filename((1, 0))).unlink()
    assert main(["repair", "--node", "1,0", "--out-dir", str(store)]) == EXIT_OK
    out = capsys.readouterr().out
    got = int(re.search(r"per-helper read : (\d+) bytes", out).group(1))
    # one block: the header, then beta rows of m planes in whole bytes, each
    # with its digest
    assert got == HEADER_LEN + p.beta * (-(-man.stripe_count * p.gf.m // 8) + 4)
    assert "stripes x" not in out  # no per-stripe byte count: a symbol is m bits


def test_repair_overwrites_stale_shard(store22):
    store, _ = store22
    victim = store / shard_filename((2, 0))
    original = victim.read_bytes()
    victim.write_bytes(original[:HEADER_LEN] + b"\x00" * (len(original) - HEADER_LEN))
    assert main(["repair", "--node", "2,0", "--out-dir", str(store)]) == EXIT_OK
    assert victim.read_bytes() == original


def test_encode_and_repair_remove_their_own_stale_temp_files(store22, tmp_path):
    # the temp files a killed encode or repair leaves: encode removes those
    # of every shard of the code and of the manifest, repair only that of
    # the shard it rebuilds; a foreign x.tmp stays, and the output is exact
    store, data = store22
    p = Manifest.read(store / "manifest.txt").params()
    good = {f.name: f.read_bytes() for f in store.iterdir()}
    owned = [shard_filename(nd) + ".tmp" for nd in p.nodes()] + ["manifest.txt.tmp"]
    for name in owned + ["x.tmp"]:
        (store / name).write_bytes(b"left by a killed run")
    src = tmp_path / "input.bin"
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    assert {f.name: f.read_bytes() for f in store.iterdir()} == \
        {**good, "x.tmp": b"left by a killed run"}
    (store / shard_filename((1, 0))).unlink()
    for name in ("shard_1_0.msrc.tmp", "shard_2_0.msrc.tmp"):
        (store / name).write_bytes(b"left by a killed run")
    assert main(["repair", "--node", "1,0", "--out-dir", str(store)]) == EXIT_OK
    assert {f.name: f.read_bytes() for f in store.iterdir()} == \
        {**good, "x.tmp": b"left by a killed run", "shard_2_0.msrc.tmp": b"left by a killed run"}


@pytest.mark.parametrize("command", ["repair", "decode"])
def test_a_bad_row_names_the_shard_and_the_block(tmp_path, monkeypatch, capsys, command):
    # one flipped byte in block 1 of a 3-block store: a helper's gamma row
    # for repair, a systematic row for decode.  The row digest names the shard
    # and the block, before the whole-file CRC is reached; nothing is renamed
    monkeypatch.setattr(shardio, "BLOCK_STRIPES", 8)
    store, src, out = tmp_path / "store", tmp_path / "in.bin", tmp_path / "out.bin"
    assert main(["init", "--q", "2", "--t", "2", "--m", "3", "--out-dir", str(store)]) == EXIT_OK
    src.write_bytes(os.urandom(70))  # 24 bytes per 8 stripes: 3 blocks
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    p = Manifest.read(store / "manifest.txt").params()
    assert Manifest.read(store / "manifest.txt").stripe_count == 24
    if command == "repair":
        bad, row = (2, 0), gamma_ordinals(p, (1, 0))[0]
        (store / shard_filename((1, 0))).unlink()
        argv = ["repair", "--node", "1,0", "--out-dir", str(store)]
    else:
        bad, row = (1, 1), 2
        argv = ["decode", str(out), str(store / shard_filename((1, 1))),
                str(store / shard_filename((2, 0)))]
    path = store / shard_filename(bad)
    blob = bytearray(path.read_bytes())
    blob[HEADER_LEN + shardio.payload_bytes(8, p.alpha, 3) + shardio.payload_bytes(8, row, 3)] ^= 4
    path.write_bytes(bytes(blob))
    before = {f.name: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
    capsys.readouterr()
    assert main(argv) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert f"{shard_filename(bad)}: block 1: row {row} does not match its digest" in err
    assert {f.name: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == before


def test_repair_checksum_mismatch_leaves_no_file(store22, capsys):
    store, _ = store22
    p = Manifest.read(store / "manifest.txt").params()
    failed = (1, 0)
    (store / shard_filename(failed)).unlink()
    # flip one bit of a helper-row symbol in stripe 0 and give the row its
    # new digest, as a stale helper would have it: every row read checks out,
    # and only the rebuilt shard's checksum against the manifest fails.
    # Each row of the first block holds min(stripe_count, BLOCK_STRIPES) stripes.
    helper = store / shard_filename((2, 0))
    blob = bytearray(helper.read_bytes())
    width = min(read_shard(helper)[0].stripe_count, BLOCK_STRIPES)
    row = gamma_ordinals(p, failed)[0]
    at = HEADER_LEN + shardio.payload_bytes(width, row, p.gf.m)
    row_bytes = shardio.payload_bytes(width, 1, p.gf.m) - 4
    blob[at] ^= 1
    blob[at + row_bytes : at + row_bytes + 4] = \
        hashlib.blake2b(blob[at : at + row_bytes], digest_size=4).digest()
    helper.write_bytes(bytes(blob))
    before = {f.name: f.read_bytes() for f in store.iterdir()}
    capsys.readouterr()
    assert main(["repair", "--node", "1,0", "--out-dir", str(store)]) == EXIT_VERIFY
    assert "rebuilt shard_1_0.msrc does not match manifest checksum" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in store.iterdir()} == before  # no .tmp either


def test_repair_mislabeled_helper_is_verification_failure(store22):
    store, _ = store22
    # a helper whose header claims a different node
    blob = (store / shard_filename((2, 0))).read_bytes()
    (store / shard_filename((2, 1))).write_bytes(blob)
    (store / shard_filename((1, 0))).unlink()
    assert main(["repair", "--node", "1,0", "--out-dir", str(store)]) == EXIT_VERIFY


def test_repair_missing_helper_is_io_error(store22):
    store, _ = store22
    (store / shard_filename((1, 0))).unlink()
    (store / shard_filename((2, 1))).unlink()
    assert main(["repair", "--node", "1,0", "--out-dir", str(store)]) == EXIT_IO


def test_repair_bad_node_syntax(store22):
    store, _ = store22
    assert main(["repair", "--node", "nope", "--out-dir", str(store)]) == EXIT_USAGE
    assert main(["repair", "--node", "9,9", "--out-dir", str(store)]) == EXIT_USAGE


# -- verify -------------------------------------------------------------------


def test_verify_fresh_store_passes(store22):
    store, _ = store22
    assert main(["verify", "--trials", "3", "--out-dir", str(store)]) == EXIT_OK


def test_verify_zero_trials_passes_on_ranks(store22):
    store, _ = store22
    assert main(["verify", "--trials", "0", "--out-dir", str(store)]) == EXIT_OK


def test_verify_tampered_c0_fails(store22):
    store, _ = store22
    man = Manifest.read(store / "manifest.txt")
    man.c0 = 6  # rank-deficient for (2,2) over the auto-chosen GF(2^3)
    man.write(store / "manifest.txt")
    assert main(["verify", "--trials", "2", "--out-dir", str(store)]) == EXIT_VERIFY


def test_verify_eliminates_each_subset_once(store22, forking, monkeypatch, tmp_path):
    # one elimination per size-q subset serves the rank check and the
    # decodes, in exactly one of the two processes that share the subsets;
    # each process logs its eliminations to one file
    store, _ = store22
    forking(2)
    log = tmp_path / "eliminations.txt"
    real_inverse_for, real_reduce = parity.ParityCheckSystem.inverse_for, parity._reduce

    def logged(what):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {what}\n")

    def inverse_for(self, missing, constraints):
        logged(sorted(missing))
        return real_inverse_for(self, missing, constraints)

    def reduce(rows, gf):
        logged("reduce")
        return real_reduce(rows, gf)

    monkeypatch.setattr(parity.ParityCheckSystem, "inverse_for", inverse_for)
    monkeypatch.setattr(parity, "_reduce", reduce)
    assert main(["verify", "--trials", "3", "--out-dir", str(store)]) == EXIT_OK
    lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
    reduces = sorted(pid for pid, what in lines if what == "reduce")
    subsets = [(what, pid) for pid, what in lines if what != "reduce"]
    assert len(reduces) == len(subsets) == len(dict(subsets)) == 6  # comb(n=4, q=2)
    assert sorted(pid for _, pid in subsets) == reduces
    assert len(set(reduces)) == 2


@pytest.mark.parametrize("fault", ["raises", "dies", "no-fork"])
def test_a_failed_verify_worker_s_subsets_are_checked_here(store22, forking, monkeypatch,
                                                           capsys, fault):
    # a worker that raises or dies, or that cannot be forked, leaves its
    # subsets to the parent: verify prints what one process prints, exits 0
    # and reaps every child
    store, _ = store22
    forking(1)
    assert main(["verify", "--trials", "1", "--out-dir", str(store)]) == EXIT_OK
    serial = capsys.readouterr().out
    forks = forking(3)
    parent, real_decode, recorded_fork = os.getpid(), codec.decode_from_k, os.fork

    decoded_here = []  # the k-subsets this process decodes from

    def decode_from_k(available, sys_):
        if os.getpid() == parent:
            decoded_here.append(tuple(available))
        elif fault == "raises":
            raise ValueError("no decode here")
        elif fault == "dies":
            os.kill(os.getpid(), signal.SIGKILL)
        return real_decode(available, sys_)

    def fork():
        if fault == "no-fork" and forks:  # the second fork: no process to spare
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return recorded_fork()

    monkeypatch.setattr(codec, "decode_from_k", decode_from_k)
    monkeypatch.setattr(os, "fork", fork)
    assert main(["verify", "--trials", "1", "--out-dir", str(store)]) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert len(forks) == (1 if fault == "no-fork" else 2)
    # 3 slices of 2 of the 6 k-subsets: all run here but the clean child's
    assert len(decoded_here) == len(set(decoded_here)) == (4 if fault == "no-fork" else 6)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_negative_trials_is_usage_error(store22, capsys):
    store, _ = store22
    assert main(["verify", "--trials", "-1", "--out-dir", str(store)]) == EXIT_USAGE
    assert "messages" not in capsys.readouterr().out


def test_verify_garbled_parameter_fails_fast(tmp_path):
    # t=9 would make verify build and rank-check a code with 3^10 constraints
    path = tmp_path / "manifest.txt"
    Manifest.for_params(make_params(3, 3, 8).with_c0(1)).write(path)
    path.write_text(re.sub(r"^t=3$", "t=9", path.read_text(), flags=re.M))
    start = time.perf_counter()
    assert main(["verify", "--out-dir", str(tmp_path)]) == EXIT_VERIFY
    assert time.perf_counter() - start < 1


def test_no_command_loads_numpy(tmp_path):
    # every command runs on ints: with a numpy that raises when executed
    # first on the path, init, encode, decode, repair, verify and stats all
    # succeed in one process and leave no numpy module loaded; nor hashlib
    # or _hashlib (OpenSSL), 3-5 ms of import: a row digest is _blake2's
    script = textwrap.dedent("""
        import json, sys
        from msrcode.cli import main
        store, data = sys.argv[1:]
        out = store + "/out.bin"
        codes = [main(["init", "--q", "2", "--t", "2", "--out-dir", store]),
                 main(["encode", data, "--out-dir", store]),
                 main(["decode", out, store + "/shard_1_1.msrc", store + "/shard_2_0.msrc"]),
                 main(["repair", "--node", "1,0", "--out-dir", store]),
                 main(["verify", "--trials", "1", "--out-dir", store]),
                 main(["stats", "--out-dir", store])]
        same = open(out, "rb").read() == open(data, "rb").read()
        loaded = sorted(m for m in sys.modules
                        if m.split(".")[0] in ("numpy", "hashlib", "_hashlib"))
        print(json.dumps([codes, same, loaded]))
    """)
    stub = tmp_path / "stub" / "numpy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("raise ImportError('numpy was executed')\n")
    data = tmp_path / "in.bin"
    data.write_bytes(bytes(range(256)) * 300)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(stub.parent), str(Path(msrcode.__file__).parents[1])]))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "store"), str(data)],
                         env=env, capture_output=True, text=True, check=True)
    codes, same, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * 6
    assert same
    assert loaded == []


def test_cli_import_loads_no_costly_module():
    # dataclasses (through inspect), fractions (through decimal), hashlib,
    # typing, signal (only a failed verify's clean-up uses it), numpy and
    # msrcode.btf (only init's c0 search uses it) cost start-up time on
    # every command; the child runs without site (-S), so a module that a
    # .pth file would load first still counts
    script = textwrap.dedent("""
        import json, sys
        before = set(sys.modules)
        import msrcode.cli
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(msrcode.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert "msrcode.cli" in loaded
    banned = {"dataclasses", "inspect", "fractions", "decimal", "hashlib", "typing", "signal",
              "numpy"}
    assert [m for m in loaded if m.split(".")[0] in banned] == []
    assert "msrcode.btf" not in loaded


def cli_process(args, closed=None, unbuffered=False, **kwargs):
    """Run `python -m msrcode.cli` with block-buffered stdout (no
    PYTHONUNBUFFERED, unless `unbuffered`), as a shell or the benchmark runs
    it.  With `closed` (1 or 2), a launcher closes that fd and execs the
    interpreter, which then starts with sys.stdout or sys.stderr None."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(msrcode.__file__).parents[1])
    argv = [sys.executable, "-m", "msrcode.cli", *map(str, args)]
    if closed is not None:
        launcher = "import os, sys; os.close(int(sys.argv[1])); os.execv(sys.argv[2], sys.argv[2:])"
        argv = [sys.executable, "-c", launcher, str(closed), *argv]
    return subprocess.run(argv, env=env, stderr=subprocess.PIPE, text=True, **kwargs)


def test_a_command_process_keeps_its_output_files_and_status(tmp_path, capsys):
    # the process ends in os._exit, after main: no buffered line is lost,
    # every file written is complete, and the status is main's
    assert main(["stats", "--q", "3", "--t", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    child = cli_process(["stats", "--q", "3", "--t", "3"], stdout=subprocess.PIPE)
    assert (child.returncode, child.stdout.splitlines()) == (EXIT_OK, lines)
    store, src, out = tmp_path / "store", tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(os.urandom(300_000))  # more than one block
    shards = [store / shard_filename(nd) for nd in [(1, 0), (2, 1), (3, 0), (3, 1)]]
    for args in (["init", "--q", "2", "--t", "3", "--out-dir", store],
                 ["encode", src, "--out-dir", store],
                 ["decode", out, *shards]):
        assert cli_process(args, stdout=subprocess.PIPE).returncode == EXIT_OK
    assert out.read_bytes() == src.read_bytes()
    shard = store / shard_filename((2, 1))
    saved = shard.read_bytes()
    shard.unlink()
    child = cli_process(["repair", "--node", "2,1", "--out-dir", store], stdout=subprocess.PIPE)
    assert child.returncode == EXIT_OK
    assert child.stdout.splitlines()[-1].startswith("per-stripe symbols: 20 repair vs 32")
    assert shard.read_bytes() == saved
    # a usage error and a verification failure: main's status, and its message
    manifest = store / "manifest.txt"
    manifest.write_text(re.sub(r"^q=.*$", "q=1", manifest.read_text(), flags=re.M))
    for argv, status in ((["stats", "--q", "3"], EXIT_USAGE),
                         (["stats", "--out-dir", str(store)], EXIT_VERIFY)):
        assert main(argv) == status
        err = capsys.readouterr().err
        child = cli_process(argv, stdout=subprocess.PIPE)
        assert (child.returncode, child.stderr) == (status, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_io_error():
    # the output fits stdout's buffer, so only the flush after main fails:
    # exit 3 with an i/o error, not the interpreter's 120
    with open("/dev/full", "w") as full:
        child = cli_process(["stats", "--q", "2", "--t", "2"], stdout=full)
    assert child.returncode == EXIT_IO
    assert child.stderr.startswith("i/o error: standard output: ")
    assert "Exception ignored" not in child.stderr


def test_a_closed_stdout_exits_io_error_before_the_command(tmp_path):
    # with fd 1 closed the command's output has nowhere to go: exit 3 with
    # a message on stderr, before the command runs, so a repair leaves
    # every file of the store as it was
    child = cli_process(["stats", "--q", "2", "--t", "2"], closed=1)
    assert (child.returncode, child.stderr) == (EXIT_IO, "i/o error: standard output is closed\n")
    store, src = tmp_path / "store", tmp_path / "in.bin"
    src.write_bytes(os.urandom(5000))
    assert main(["init", "--q", "2", "--t", "2", "--out-dir", str(store)]) == EXIT_OK
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    (store / shard_filename((1, 0))).unlink()
    before = {f: f.read_bytes() for f in store.iterdir()}
    child = cli_process(["repair", "--node", "1,0", "--out-dir", store], closed=1)
    assert child.returncode == EXIT_IO
    assert {f: f.read_bytes() for f in store.iterdir()} == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_closed_stderr_and_a_full_stdout_exit_io_error():
    # nowhere to say that the output failed, whether in the flush after the
    # command or, unbuffered, in its first write: exit 3 either way, not 1
    for unbuffered in (False, True):
        with open("/dev/full", "w") as full:
            child = cli_process(["stats", "--q", "2", "--t", "2"], closed=2,
                                unbuffered=unbuffered, stdout=full)
        assert child.returncode == EXIT_IO, unbuffered


def test_a_closed_stderr_keeps_errors_off_stdout():
    # a usage error has nowhere to go either: exit 3, and stdout stays
    # empty rather than carrying the error line
    child = cli_process(["stats", "--q", "2"], closed=2, stdout=subprocess.PIPE)
    assert (child.returncode, child.stdout) == (EXIT_IO, "")


def test_each_command_builds_the_field_once(tmp_path, monkeypatch):
    # GF(2^16)'s tables take about 10 ms to build, so no command may build
    # its field twice
    store, data, out = tmp_path / "store", tmp_path / "in.bin", tmp_path / "out.bin"
    data.write_bytes(bytes(range(256)) * 4)
    builds = []
    real_init = GF2M.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(GF2M, "__init__", counting_init)
    shards = [str(store / shard_filename(nd)) for nd in [(1, 1), (2, 0)]]
    counts = []
    for argv in (["init", "--q", "2", "--t", "2", "--m", "16", "--out-dir", str(store)],
                 ["encode", str(data), "--out-dir", str(store)],
                 ["decode", str(out), *shards],
                 ["repair", "--node", "1,0", "--out-dir", str(store)],
                 ["verify", "--trials", "1", "--out-dir", str(store)],
                 ["stats", "--out-dir", str(store)]):
        builds.clear()
        assert main(argv) == EXIT_OK
        counts.append(len(builds))
    assert counts == [1] * 6
    assert out.read_bytes() == data.read_bytes()


def test_verify_zero_c0_fails(store22):
    store, _ = store22
    man = Manifest.read(store / "manifest.txt")
    man.c0 = 0
    man.write(store / "manifest.txt")
    assert main(["verify", "--out-dir", str(store)]) == EXIT_VERIFY


# -- stats / usage ----------------------------------------------------------------


def test_stats_from_flags(capsys):
    assert main(["stats", "--q", "3", "--t", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n      = 9" in out
    assert "alpha  = 27" in out
    assert "rate   = 2/3" in out
    assert "repair = 72 symbols" in out


def test_repair_and_stats_print_the_bandwidth_lines(tmp_path, capsys):
    # d*beta against k*alpha, to the byte: (2,3) repairs from 5 x 4 of 4 x 8
    # symbols, (3,3) from 8 x 9 of 6 x 27
    store, src = tmp_path / "store", tmp_path / "input.bin"
    src.write_bytes(os.urandom(500))
    assert main(["init", "--q", "2", "--t", "3", "--out-dir", str(store)]) == EXIT_OK
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    (store / shard_filename((1, 0))).unlink()
    capsys.readouterr()
    assert main(["repair", "--node", "1,0", "--out-dir", str(store)]) == EXIT_OK
    assert "per-stripe symbols: 20 repair vs 32 naive (ratio 0.6250)\n" in \
        capsys.readouterr().out
    assert main(["stats", "--q", "3", "--t", "3"]) == EXIT_OK
    assert "repair = 72 symbols (d*beta), naive 162, ratio 0.4444\n" in capsys.readouterr().out


def test_stats_from_manifest(store22, capsys):
    store, _ = store22
    assert main(["stats", "--out-dir", str(store)]) == EXIT_OK
    assert "n      = 4" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["q=1", "c0=99"])
def test_stats_invalid_manifest_is_verification_failure(store22, line):
    store, _ = store22
    path = store / "manifest.txt"
    key = line.split("=")[0]
    path.write_text(re.sub(rf"^{key}=.*$", line, path.read_text(), flags=re.M))
    assert main(["stats", "--out-dir", str(store)]) == EXIT_VERIFY


@pytest.mark.parametrize("key,value", [("q", 1), ("c0", 99)])
def test_stats_invalid_parameters_under_a_valid_crc(store22, key, value):
    # stats reads the parameters without building the code; a bad one whose
    # params_crc matches still exits 2
    store, _ = store22
    manifest = Manifest.read(store / "manifest.txt")
    setattr(manifest, key, value)
    manifest.write(store / "manifest.txt")
    assert main(["stats", "--out-dir", str(store)]) == EXIT_VERIFY


@pytest.mark.parametrize("command", ["encode", "decode", "repair", "verify", "stats"])
def test_manifest_with_a_non_default_polynomial_is_refused(tmp_path, command):
    # 0x11B (x^8+x^4+x^3+x+1) is irreducible but not primitive, and not
    # GF(2^8)'s polynomial: every command that reads the manifest exits 2,
    # under a matching params_crc, and leaves every file as it was
    store, src = tmp_path / "store", tmp_path / "input.bin"
    src.write_bytes(os.urandom(1000))
    assert main(["init", "--q", "2", "--t", "2", "--m", "8", "--out-dir", str(store)]) == EXIT_OK
    assert main(["encode", str(src), "--out-dir", str(store)]) == EXIT_OK
    manifest = Manifest.read(store / "manifest.txt")
    manifest.reduction_poly = 0x11B
    manifest.write(store / "manifest.txt")
    before = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
    argv = {
        "encode": ["encode", str(src), "--out-dir", str(store)],
        "decode": ["decode", str(tmp_path / "out.bin"), *map(str, shards_in(store)[:2])],
        "repair": ["repair", "--node", "1,0", "--out-dir", str(store)],
        "verify": ["verify", "--trials", "1", "--out-dir", str(store)],
        "stats": ["stats", "--out-dir", str(store)],
    }[command]
    assert main(argv) == EXIT_VERIFY
    assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == before


def test_stats_needs_both_q_and_t():
    assert main(["stats", "--q", "3"]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["stats", "init"])
def test_too_many_nodes_for_any_field_is_usage_error(tmp_path, capsys, command):
    # n = 90,000 nodes need more evaluation points than GF(2^16) has
    assert main([command, "--q", "300", "--t", "300", "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: n=90000 nodes")
    assert list(tmp_path.iterdir()) == []


def test_init_refuses_a_code_over_the_size_cap_at_once(tmp_path, capsys):
    # (2,20) has 2^21 constraints of up to 60 terms, over parity.MAX_TERMS:
    # refused before its parity-check system is built
    start = time.perf_counter()
    assert main(["init", "--q", "2", "--t", "20", "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ("error: (q=2, t=20) needs 125829120 parity-check "
                                       f"terms, over the size cap {parity.MAX_TERMS}\n")
    assert list(tmp_path.iterdir()) == []


def test_stats_prints_a_code_over_the_size_cap(capsys):
    assert main(["stats", "--q", "2", "--t", "20"]) == EXIT_OK
    assert "alpha  = 1048576 " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["encode", "decode", "repair", "verify"])
def test_manifest_naming_a_code_over_the_size_cap_is_refused(store22, tmp_path, capsys, command):
    # a hand-edited manifest under a matching params_crc exits 2 at once
    # and leaves every file as it was
    store, _ = store22
    src = tmp_path / "input.bin"
    Manifest(2, 20, 6, GF2M(6).poly, 1).write(store / "manifest.txt")
    before = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
    argv = {
        "encode": ["encode", str(src), "--out-dir", str(store)],
        "decode": ["decode", str(tmp_path / "out.bin"), *map(str, shards_in(store)[:2])],
        "repair": ["repair", "--node", "1,0", "--out-dir", str(store)],
        "verify": ["verify", "--trials", "1", "--out-dir", str(store)],
    }[command]
    start = time.perf_counter()
    assert main(argv) == EXIT_VERIFY
    assert time.perf_counter() - start < 1
    assert "manifest parameters are invalid: (q=2, t=20) needs 125829120" in capsys.readouterr().err
    assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == before


def test_stats_m_without_q_and_t_is_usage_error(store22, capsys):
    # stats takes no --m: with --q and --t it prints the smallest workable field
    store, _ = store22
    capsys.readouterr()
    for flags in (["--m", "7"], ["--q", "3", "--t", "3", "--m", "8"]):
        assert main(["stats", *flags, "--out-dir", str(store)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_required_flag_is_usage_error():
    assert main(["init", "--q", "2"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "init" in capsys.readouterr().out
