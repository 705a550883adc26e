"""Command-line front end: init, encode, decode, repair, verify, stats.

Exit status: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
Shards and the manifest live together in a directory (--out-dir); the
"network" between nodes is plain file reads, which repair keeps to the
helper-row byte ranges only.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import codec, repair, shardio
from .params import Node, make_params
from .parity import ParityCheckSystem, build_system, check_mds_ranks, find_code
from .shardio import Manifest, ShardFormatError, shard_filename

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class VerificationFailure(Exception):
    """A correctness check (MDS ranks, round trips, checksums) failed."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _parse_node(text: str) -> Node:
    try:
        i, theta = text.split(",")
        return int(i), int(theta)
    except ValueError:
        raise _UsageError(f"--node expects i,theta (got {text!r})") from None


def _manifest_path(out_dir: str) -> Path:
    return Path(out_dir) / shardio.MANIFEST_NAME


def _load_manifest(out_dir: str) -> Manifest:
    path = _manifest_path(out_dir)
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run `msrcode init` first")
    return Manifest.read(path)


def _system_for(manifest: Manifest) -> ParityCheckSystem:
    try:
        params = manifest.params()
        return build_system(params, params.c0)
    except ValueError as err:
        raise VerificationFailure(f"manifest parameters are invalid: {err}") from None


# -- commands -----------------------------------------------------------------


def cmd_init(args) -> int:
    params = find_code(args.q, args.t, args.m)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest.for_params(params)
    manifest.write(_manifest_path(args.out_dir))
    print(f"initialized (q={params.q}, t={params.t}) over GF(2^{params.gf.m}), "
          f"poly={params.gf.poly:#x}, c0={params.c0}")
    print(f"n={params.n} k={params.k} d={params.d} alpha={params.alpha} beta={params.beta}")
    return EXIT_OK


def cmd_encode(args) -> int:
    manifest = _load_manifest(args.out_dir)
    sys_ = _system_for(manifest)
    p = sys_.params
    data = Path(args.input).read_bytes()
    stripes = shardio.stripe_count_for(len(data), p.message_len, p.gf.m)
    messages = shardio.symbols_from_bytes(data, p.gf.m, stripes * p.message_len)
    columns = codec.encode_batch(messages.reshape(stripes, p.message_len), sys_)
    manifest.stripe_count = stripes
    manifest.file_length = len(data)
    manifest.checksums = {}
    out_dir = Path(args.out_dir)
    for node in p.nodes():
        path = out_dir / shard_filename(node)
        shardio.write_shard(path, manifest.header_for(node), columns[node])
        manifest.checksums[node] = shardio.crc32_file(path)
    manifest.write(_manifest_path(args.out_dir))
    print(f"encoded {len(data)} bytes into {p.n} shards "
          f"({stripes} stripes of {p.message_len} symbols)")
    return EXIT_OK


def cmd_decode(args) -> int:
    manifest_path = Path(args.manifest) if args.manifest else \
        Path(args.shards[0]).parent / shardio.MANIFEST_NAME
    manifest = Manifest.read(manifest_path)
    sys_ = _system_for(manifest)
    p = sys_.params
    if len(args.shards) != p.k:
        raise _UsageError(f"decoding needs exactly k={p.k} shards, got {len(args.shards)}")
    available: dict[Node, np.ndarray] = {}
    for shard in args.shards:
        hdr, columns = shardio.read_shard(shard)
        if not manifest.matches_header(hdr):
            raise VerificationFailure(f"{shard}: header disagrees with manifest")
        if hdr.node in available:
            raise _UsageError(f"duplicate shard for node {hdr.node}")
        if hdr.node not in set(p.nodes()):
            raise VerificationFailure(f"{shard}: header names node {hdr.node}, not in the code")
        expected = manifest.checksums.get(hdr.node)
        if expected is not None and shardio.crc32_file(shard) != expected:
            raise VerificationFailure(f"{shard}: checksum mismatch")
        available[hdr.node] = columns
    messages = codec.decode_batch(available, sys_)
    data = shardio.bytes_from_symbols(messages, p.gf.m, manifest.file_length)
    Path(args.output).write_bytes(data)
    print(f"decoded {len(data)} bytes from {p.k} shards")
    return EXIT_OK


def cmd_repair(args) -> int:
    failed = _parse_node(args.node)
    manifest = _load_manifest(args.out_dir)
    sys_ = _system_for(manifest)
    p = sys_.params
    p.node_ordinal(failed)
    out_dir = Path(args.out_dir)
    helpers = [nd for nd in p.nodes() if nd != failed]
    missing = [nd for nd in helpers if not (out_dir / shard_filename(nd)).exists()]
    if missing:
        raise FileNotFoundError(
            f"repair needs all d={p.d} helper shards; missing: "
            + ", ".join(shard_filename(nd) for nd in missing))
    gamma_columns: dict[Node, np.ndarray] = {}
    bytes_per_helper: dict[Node, int] = {}
    for nd in helpers:
        hdr, cols, nbytes = shardio.read_gamma(out_dir / shard_filename(nd), failed, p)
        if not manifest.matches_header(hdr) or hdr.node != nd:
            raise VerificationFailure(f"{shard_filename(nd)}: header disagrees with manifest")
        gamma_columns[nd] = cols
        bytes_per_helper[nd] = nbytes
    rebuilt = repair.repair_batch(failed, gamma_columns, sys_)
    path = out_dir / shard_filename(failed)
    tmp = path.with_name(path.name + ".tmp")
    try:  # the shard appears under its name only once its checksum matches
        shardio.write_shard(tmp, manifest.header_for(failed), rebuilt)
        expected = manifest.checksums.get(failed)
        if expected is not None and shardio.crc32_file(tmp) != expected:
            raise VerificationFailure(f"rebuilt {path.name} does not match manifest checksum")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)

    stripes = manifest.stripe_count
    read_total = sum(bytes_per_helper.values())
    naive = p.k * (shardio.HEADER_LEN + stripes * p.alpha * 2)
    report = repair.bandwidth_report(p)
    print(f"rebuilt {path.name} from {p.d} helpers")
    print(f"per-helper read : {max(bytes_per_helper.values(), default=0)} bytes "
          f"(header {shardio.HEADER_LEN} + {stripes} stripes x {2 * p.beta} bytes)")
    print(f"total read      : {read_total} bytes")
    print(f"naive (k full shards): {naive} bytes")
    print(f"per-stripe symbols: {report.total} repair vs {report.naive} naive "
          f"(ratio {report.ratio:.4f})")
    return EXIT_OK


def cmd_verify(args) -> int:
    sys_ = _system_for(_load_manifest(args.out_dir))
    p = sys_.params
    bad = check_mds_ranks(sys_)
    if bad:
        raise VerificationFailure(
            f"{len(bad)} node subsets are rank-deficient, e.g. {bad[0]}")
    print(f"rank check: all size-{p.q} node subsets full rank")
    report = codec.verify_mds(sys_, args.trials)
    print(f"round trips: {report.subset_count} k-subsets x {report.trials} messages, "
          f"{len(report.failures)} failures")
    if not report.ok:
        raise VerificationFailure(f"decode round trip failed for {report.failures[:3]}")
    return EXIT_OK


def cmd_stats(args) -> int:
    if args.q is not None or args.t is not None:
        if args.q is None or args.t is None:
            raise _UsageError("stats needs both --q and --t (or neither)")
        m = args.m
        if m is None:
            n = args.q * args.t
            m = next(mm for mm in range(1, 17) if (1 << mm) - 1 >= n)
        p = make_params(args.q, args.t, m)
    else:
        p = _system_for(_load_manifest(args.out_dir)).params
    report = repair.bandwidth_report(p)
    print(f"q={p.q} t={p.t} field=GF(2^{p.gf.m})")
    print(f"n      = {p.n}")
    print(f"k      = {p.k}")
    print(f"d      = {p.d}")
    print(f"alpha  = {p.alpha} (polynomial in k: (k/(t-1))^t = ({p.k}/{p.t - 1})^{p.t})")
    print(f"beta   = {p.beta}")
    print(f"B      = {p.message_len}")
    print(f"rate   = {p.rate} ({float(p.rate):.4f})")
    print(f"repair = {report.total} symbols (d*beta), naive {report.naive}, "
          f"ratio {report.ratio:.4f}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="msrcode", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func)
        return sp

    sp = add("init", cmd_init, "pick the field and coefficient, write the manifest")
    sp.add_argument("--q", type=int, required=True, help="index-ring modulus (>= 2)")
    sp.add_argument("--t", type=int, required=True, help="rate parameter: rate = (t-1)/t")
    sp.add_argument("--m", type=int, default=None,
                    help="field degree; defaults to the smallest workable one")
    sp.add_argument("--out-dir", default=".", help="directory for manifest and shards")

    sp = add("encode", cmd_encode, "stripe and encode a file into n shards")
    sp.add_argument("input", help="file to encode")
    sp.add_argument("--out-dir", default=".")

    sp = add("decode", cmd_decode, "recover the file from any k shards")
    sp.add_argument("output", help="where to write the recovered file")
    sp.add_argument("shards", nargs="+", help="exactly k shard files")
    sp.add_argument("--manifest", default=None,
                    help="manifest path (default: next to the first shard)")

    sp = add("repair", cmd_repair, "rebuild one shard from the other n-1")
    sp.add_argument("--node", required=True, help="failed node as i,theta")
    sp.add_argument("--out-dir", default=".")

    sp = add("verify", cmd_verify, "check MDS ranks and decode round trips")
    sp.add_argument("--trials", type=int, default=5,
                    help="random messages per subset")
    sp.add_argument("--out-dir", default=".")

    sp = add("stats", cmd_stats, "print the parameter/bandwidth table")
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--out-dir", default=".")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code or EXIT_OK
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailure as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except ShardFormatError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
