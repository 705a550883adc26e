"""Command-line front end: init, encode, decode, repair, verify, stats.

Exit status: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
A manifest naming no valid code exits 2 (Manifest.params); its CodeParams
then hold every number a command uses, c0 and the repair figures included.
Shards and the manifest live together in a directory (--out-dir); decode
reads the manifest next to its first shard and writes over no file of the
store next to any input shard.  decode and repair check shard headers in
one place, shardio.open_shard.  The "network" between nodes is plain file
reads, which repair keeps to the helper rows' byte ranges: the runs of
CodeParams.gamma_runs, the same list its repair plan reads its slots from.

encode, decode and repair each make one pass over 4096-stripe blocks, so
their memory does not grow with the file.  encode and decode share the
blocks among one process per usable CPU, in contiguous ranges
(fanout.forked_ranges, which only they import), and write what a
one-process run writes, byte for byte; a worker that fails leaves its
range to the parent, which reports a bad row as a one-process run does.
They write a systematic row that is whole bytes as they got it: encode
from the input, decode from the shard it read.  No command loads numpy or
hashlib (a row digest is _blake2's), and importing this module loads no
dataclasses, inspect or fractions (stats' rate imports fractions), so
start-up is mostly the interpreter's; each command builds its field once.
A command run as a process (run) flushes its output and ends in os._exit,
skipping the interpreter's teardown; a closed stdout or stderr exits 3
before the command runs, and a failed flush exits 3 after it.  Every file
they write goes to a temp file, is fsynced and is renamed into place
only when complete and checked: decode and repair rename only once every
CRC they can check matches the manifest (each row they read is checked
against its own digest as it is read, and a bad one names its shard and
block), and encode renames the manifest last.  After its renames a command
fsyncs the directory that holds them, once.  A failure before the renames
leaves every file as it was.  encode renames its shards one by one, so a
failed rename can leave some shards new under the old manifest; their CRCs
then disagree with it, and decode and repair exit 2.  encode first removes
the temp files of the store's own shards and manifest, and repair that of
the shard it rebuilds, which a killed run may have left.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
from pathlib import Path

from . import codec, repair, shardio
from .params import Node, make_params, smallest_field_degree
from .parity import build_system, find_code, valid_c0s
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


# -- commands -----------------------------------------------------------------


def cmd_init(args) -> int:
    out_dir = Path(args.out_dir)
    manifest_path = out_dir / shardio.MANIFEST_NAME
    # an encoded store's manifest holds the only copy of its shards'
    # checksums, stripe count and file length
    if manifest_path.exists() and Manifest.read(manifest_path).checksums:
        raise _UsageError(f"{manifest_path} records encoded shards; init would leave them "
                          "undecodable")
    params = find_code(args.q, args.t, args.m)
    valid = valid_c0s(params._replace(c0=None))  # the search's own, kept: no second pass
    out_dir.mkdir(parents=True, exist_ok=True)
    Manifest.for_params(params).write(manifest_path)
    shardio.sync_dir(out_dir)
    print(f"initialized (q={params.q}, t={params.t}) over GF(2^{params.gf.m}), "
          f"poly={params.gf.poly:#x}, c0={params.c0}")
    print(f"n={params.n} k={params.k} d={params.d} alpha={params.alpha} beta={params.beta}")
    print(f"valid c0: {len(valid)} of {params.gf.order - 1}")
    return EXIT_OK


def cmd_encode(args) -> int:
    from . import fanout

    manifest = Manifest.load(args.out_dir)
    sys_ = build_system(manifest.params())
    p = sys_.params
    out_dir = Path(args.out_dir)
    manifest_path = out_dir / shardio.MANIFEST_NAME
    shardio.remove_stale([manifest_path, *(out_dir / shard_filename(nd) for nd in p.nodes())])
    with open(args.input, "rb") as src, contextlib.ExitStack() as renames:
        st = os.fstat(src.fileno())
        if not stat.S_ISREG(st.st_mode):  # a pipe's size is 0, whatever it holds
            raise _UsageError(f"{args.input} is not a regular file; the shard headers "
                              "need its length before its data")
        length = st.st_size
        manifest.stripe_count = shardio.stripe_count_for(length, p.message_len, p.gf.m)
        shardio.check_stripe_count(manifest.stripe_count)
        manifest.file_length = length
        # entered first, so renamed last: until then the old manifest's CRCs
        # disagree with any shard already replaced
        manifest_tmp = renames.enter_context(shardio.renaming(manifest_path))
        systematic = p.systematic_nodes()

        def encoded(block) -> dict:
            """Every shard's block, from the block's input bytes and Block:
            systematic rows that are whole bytes are those very bytes."""
            data, messages = block
            columns = codec.encode_batch(messages, sys_)
            if messages.m * messages.stripes % 8 == 0:
                rows = shardio.byte_rows(data, p.message_len)
                for o, nd in enumerate(systematic):
                    columns[nd] = rows[o * p.alpha : (o + 1) * p.alpha]
            return columns

        manifest.checksums = shardio.write_shard(
            {out_dir / shard_filename(node): manifest.header_for(node) for node in p.nodes()},
            # map, unlike a generator, keeps no block between calls, so the
            # last block is freed before the next one is read
            lambda lo, hi: map(encoded, shardio.read_messages(src, length, p, lo, hi)),
            renames,
            lambda work: fanout.forked_ranges(work, manifest.stripe_count, length, p.n))
        with shardio.synced(manifest_tmp) as f:  # written and fsynced before any rename
            f.write(manifest.to_text().encode())
    shardio.sync_dir(out_dir)
    print(f"encoded {length} bytes into {p.n} shards "
          f"({manifest.stripe_count} stripes of {p.message_len} symbols)")
    return EXIT_OK


def cmd_decode(args) -> int:
    from . import fanout

    manifest = Manifest.load(Path(args.shards[0]).parent,
                             "decode reads the manifest next to its first shard")
    sys_ = build_system(manifest.encoded_params())
    p = sys_.params
    if len(args.shards) != p.k:
        raise _UsageError(f"decoding needs exactly k={p.k} shards, got {len(args.shards)}")
    inputs = {Path(s).resolve() for s in args.shards}
    if len(inputs) != p.k:
        raise _UsageError("the same shard file is given twice")
    names = [shardio.MANIFEST_NAME, *map(shard_filename, p.nodes())]
    stores = {(folder / name).resolve()
              for folder in {Path(s).parent for s in args.shards} for name in names}
    if Path(args.output).resolve() in inputs | stores:
        raise _UsageError(f"{args.output} is the manifest or a shard file of an input's "
                          "store; decode does not overwrite a store")
    if not Path(args.output).parent.is_dir():
        raise FileNotFoundError(f"{args.output}: no directory {Path(args.output).parent}")
    with contextlib.ExitStack() as stack:
        shards = [stack.enter_context(shardio.open_shard(s, manifest)) for s in args.shards]
        first = {}  # node -> its first shard, in input order
        for shard in shards:
            other = first.setdefault(shard.header.node, shard)
            if other is not shard:
                raise VerificationFailure(f"{other.path} and {shard.path}: both headers "
                                          f"name node {shard.header.node}")
        nodes, systematic = list(first), p.systematic_nodes()

        def decoded(rows: dict, stripes: int, nbytes: int) -> bytes:
            """A block's first nbytes message bytes from the rows of the k
            shards.  Where rows are whole bytes, a known systematic row is
            written as read, and the block is solved only for a missing one."""
            def solved():
                return codec.decode_batch(
                    {nd: shardio.rows_block(r, p.gf.m, stripes) for nd, r in rows.items()}, sys_)

            if p.gf.m * stripes % 8:  # rows padded to whole bytes: they do not join up
                return shardio.bytes_from_symbols(solved(), p.gf.m, nbytes)
            parts, message, size = [], None, p.alpha * p.gf.m * stripes // 8  # a node's rows
            for o, nd in enumerate(systematic):
                if nd in rows:
                    parts += rows[nd]
                    continue
                if message is None:
                    message = solved()
                parts.append(shardio.bytes_from_symbols(
                    message[o * p.alpha : (o + 1) * p.alpha], p.gf.m, size))
            return b"".join(parts)[:nbytes]

        opener = os.getpid()
        with shardio.replacing(args.output) as out:
            def decode_range(lo: int, hi: int) -> list[tuple[int, int]]:
                """Decode blocks lo..hi-1 into their place in the output
                (write_at), reading through files of its own; the CRC-32 and
                length of each shard's bytes read."""
                forked = os.getpid() != opener
                with contextlib.ExitStack() as own:
                    readers = [own.enter_context(shard.reopened()) for shard in shards]
                    streams = [reader.rows([(0, p.alpha)], lo, hi) for reader in readers]
                    offset = shardio.input_offset(lo, p)
                    for stripes, nbytes in shardio.message_blocks(manifest.file_length, p, lo, hi):
                        rows = {nd: next(s)[1] for nd, s in zip(nodes, streams)}
                        shardio.write_at(out, decoded(rows, stripes, nbytes), offset, forked)
                        offset += nbytes
                        del rows  # freed before the next block is read
                return [(reader.crc, reader.bytes_read) for reader in readers]

            pairs = fanout.forked_ranges(decode_range, manifest.stripe_count,
                                         manifest.file_length, len(shards))
            for shard, (crc, length) in zip(shards, pairs):  # shard.crc: its header's
                crc = fanout.crc32_join(shard.crc, crc, length)
                if crc != manifest.checksums[shard.header.node]:
                    raise VerificationFailure(f"{shard.path}: checksum mismatch")
    shardio.sync_dir(Path(args.output).parent)
    print(f"decoded {manifest.file_length} bytes from {p.k} shards")
    return EXIT_OK


def cmd_repair(args) -> int:
    failed = _parse_node(args.node)
    manifest = Manifest.load(args.out_dir)
    sys_ = build_system(manifest.encoded_params())
    p = sys_.params
    runs = p.gamma_runs(failed)  # the helper rows; ValueError on a node not in the code
    out_dir = Path(args.out_dir)
    helpers = [nd for nd in p.nodes() if nd != failed]
    path = out_dir / shard_filename(failed)
    shardio.remove_stale([path])
    with contextlib.ExitStack() as stack:  # a missing helper raises FileNotFoundError
        shards = [stack.enter_context(shardio.open_shard(out_dir / shard_filename(nd),
                                                         manifest, nd)) for nd in helpers]
        def rebuilt(*blocks):
            return {failed: repair.repair_batch(failed, dict(zip(helpers, blocks)), sys_)}

        # renamed when the stack closes: only once its checksum matches; map,
        # as in encode, keeps no block between calls
        crc = shardio.write_shard(
            {path: manifest.header_for(failed)},
            lambda lo, hi: map(rebuilt, *(shard.blocks(runs, lo, hi) for shard in shards)),
            stack)[failed]
        if crc != manifest.checksums[failed]:
            raise VerificationFailure(f"rebuilt {path.name} does not match manifest checksum")
    shardio.sync_dir(out_dir)
    read = [shard.bytes_read for shard in shards]
    naive = p.k * shardio.shard_bytes(manifest.header_for(failed))
    print(f"rebuilt {path.name} from {p.d} helpers")
    print(f"per-helper read : {max(read, default=0)} bytes "
          f"(header {shardio.HEADER_LEN} + {p.beta} of {p.alpha} rows of every block, "
          f"{p.gf.m} bits per symbol, each row with its digest)")
    print(f"total read      : {sum(read)} bytes")
    print(f"naive (k full shards): {naive} bytes")
    print(f"per-stripe symbols: {p.d * p.beta} repair vs {p.message_len} naive "
          f"(ratio {p.d * p.beta / p.message_len:.4f})")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 0:
        raise _UsageError(f"--trials must be >= 0, got {args.trials}")
    sys_ = build_system(Manifest.load(args.out_dir).params())
    p = sys_.params
    report = codec.verify_mds(sys_, args.trials)
    if report.deficient:
        raise VerificationFailure(f"{len(report.deficient)} node subsets are "
                                  f"rank-deficient, e.g. {report.deficient[0]}")
    print(f"rank check: all size-{p.q} node subsets full rank")
    print(f"round trips: {report.subset_count} k-subsets x {report.trials} messages, "
          f"{len(report.failures)} failures")
    if not report.ok:
        raise VerificationFailure(f"decode round trip failed for {report.failures[:3]}")
    return EXIT_OK


def cmd_stats(args) -> int:
    if args.q is None and args.t is None:
        p = Manifest.load(args.out_dir).params()
    elif args.q is None or args.t is None:
        raise _UsageError("stats needs both --q and --t (or neither)")
    else:
        p = make_params(args.q, args.t, smallest_field_degree(args.q * args.t))
    print(f"q={p.q} t={p.t} field=GF(2^{p.gf.m})")
    print(f"n      = {p.n}")
    print(f"k      = {p.k}")
    print(f"d      = {p.d}")
    print(f"alpha  = {p.alpha} (polynomial in k: (k/(t-1))^t = ({p.k}/{p.t - 1})^{p.t})")
    print(f"beta   = {p.beta}")
    print(f"B      = {p.message_len}")
    print(f"rate   = {p.rate} ({float(p.rate):.4f})")
    print(f"repair = {p.d * p.beta} symbols (d*beta), naive {p.message_len}, "
          f"ratio {p.d * p.beta / p.message_len:.4f}")
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
    sp.add_argument("shards", nargs="+",
                    help="exactly k shard files; the manifest is read next to the first")

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
    sp.add_argument("--out-dir", default=".")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code or EXIT_OK
    except (VerificationFailure, ShardFormatError) as err:  # before ValueError
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except (_UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


def run():
    """The process entry (`python -m msrcode.cli`, the `msrcode` script):
    main, a flush of stdout and stderr, then os._exit with main's status,
    which skips the interpreter's teardown, about 10 ms.  Every file a
    command writes is closed before main returns.  A closed stdout or
    stderr (fd 1 or 2 closed at start, or pythonw) exits EXIT_IO before
    main runs, as does a flush that fails; an exception from main
    propagates as from main."""
    if sys.stdout is None or sys.stderr is None:
        if sys.stderr is not None:
            with contextlib.suppress(OSError):
                print("i/o error: standard output is closed", file=sys.stderr, flush=True)
        os._exit(EXIT_IO)
    status = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError as err:
            status = EXIT_IO
            if stream is sys.stdout:
                with contextlib.suppress(OSError):
                    print(f"i/o error: standard output: {err}", file=sys.stderr)
    os._exit(status)


if __name__ == "__main__":
    run()
