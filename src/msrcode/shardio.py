"""Shard and manifest file formats, block-at-a-time shard I/O, and the
bytes <-> Block slicing.

Shard layout (format version 3): a fixed 26-byte header, then the payload
in blocks of BLOCK_STRIPES stripes; the last block holds the remainder.
The block for stripes [lo, hi) stores the alpha rows in row-ordinal
order; each row is its m bit planes of hi - lo bits each, back to back and
zero-filled to a whole byte (plane b holds bit b of every stripe's symbol,
LSB-first; see gf.Block), then the row's digest: the first 4 bytes of
the BLAKE2b of those bytes (`row_digest`).  So a symbol takes m bits, and
a helper's rows for one repair, with their digests, are a few long byte
runs per block.  The manifest records the CRC-32 of each whole shard file.
The row digest is not a CRC on purpose: CRC-32 is GF(2)-linear, so a row
CRC stored after its row would cancel part or all of the row's effect on
the file's CRC-32 (all of it when stored little-endian, the byte order of
zlib's reflected CRC), and a row replaced with its own correct CRC could
go unseen by the manifest's checksum.
The header's reduction_poly field stores the polynomial without its
implicit leading x^m bit so degree-16 polynomials fit in two bytes; the
plain-text manifest records the full integer, which must be GF2M's own
polynomial for m (Manifest.params).  Other versions are refused.

Shards are read and written one block at a time, so memory is O(block)
whatever the file size.  In memory a block is a Block of (rows, stripes)
bit planes, exactly as stored.  `open_shard` yields a ShardReader, which
checks the header and the file size before any payload read and, given
the manifest, that the header is the manifest's for a node of the code.
Its one read loop, `blocks(runs)`, streams the rows of the given (start,
length) runs of every block, with one seek and one read per run per
block: the whole shard is the single run (0, alpha), and a helper's rows
for a repair are the runs of CodeParams.gamma_runs.  It checks every row it reads against
the row's digest, names the shard, the block and the row of one that
fails, and keeps a running CRC-32 of the bytes it read, which after a
whole read is the file's.  read_shard and read_gamma join the blocks.
No reader or writer keeps a block once the next one is read.
`write_shard` writes one or more shards in one pass over a stream of
blocks, through a ShardWriter per shard that takes exactly the next block
and keeps a running CRC-32.  Every file written here goes to <name>.tmp,
is fsynced (`synced`, the one place that fsyncs a file), and only then is
renamed over <name> (`renaming`, `replacing`), so an error or a crash
part-way never leaves a partial file under the real name; a command fsyncs
each directory once after its last rename there (`sync_dir`), so the
renames are durable too; `remove_stale` removes those a killed run left.

The input needs no packing: the input bits of each block of `stripes`
stripes *are* the systematic planes of that block, stripes bits each, in
(node, row, bit) order (`read_messages`).  The stripe count is the fewest
stripes that hold the input, so the zero-fill is under one stripe.  A
full block's planes are whole bytes, so a systematic shard's planes are
byte slices of the input, and decoding is writing out the systematic
planes (`bytes_from_symbols`).  file_length in the header/manifest
recovers the exact byte count.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path

from .gf import Block
from .params import CodeParams, Node, Record, make_params
from .parity import _check_size

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from typing import BinaryIO

MAGIC = b"MSRC"
FORMAT_VERSION = 3
# stripes per payload block; fixed by format version 3, and a multiple of 8
# so that a full block's planes are whole bytes
BLOCK_STRIPES = 4096
_HEADER = struct.Struct("<4sBBBBHHBBIQ")
DIGEST_LEN = 4  # after each row of each block
HEADER_LEN = _HEADER.size  # 26


def check_stripe_count(stripe_count: int) -> None:
    """Refuse a stripe count too large for the header's uint32 field."""
    if stripe_count >> 32:
        raise ValueError(f"{stripe_count} stripes exceed the shard header's limit of {2**32 - 1}")


MANIFEST_NAME = "manifest.txt"
_MANIFEST_KEYS = ("q", "t", "m", "reduction_poly", "c0", "stripe_count", "file_length")
_REQUIRED_KEYS = (*_MANIFEST_KEYS, "params_crc")


class ShardFormatError(ValueError):
    """Malformed or inconsistent shard/manifest contents."""


class ShardHeader(namedtuple("ShardHeader",
                             "q t m reduction_poly c0 node stripe_count file_length")):
    """A shard's fixed-size header; reduction_poly is the full polynomial,
    leading bit included."""

    __slots__ = ()

    def pack(self) -> bytes:
        low_poly = self.reduction_poly & ((1 << self.m) - 1)
        return _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.q, self.t, self.m, low_poly,
            self.c0, self.node[0], self.node[1], self.stripe_count, self.file_length,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ShardHeader":
        if len(data) != HEADER_LEN:
            raise ShardFormatError(f"shard header must be {HEADER_LEN} bytes, got {len(data)}")
        magic, version, q, t, m, low_poly, c0, node_i, node_theta, stripes, length = \
            _HEADER.unpack(data)
        if magic != MAGIC:
            raise ShardFormatError(f"bad shard magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ShardFormatError(f"unsupported shard version {version}")
        return cls(q, t, m, low_poly | (1 << m), c0, (node_i, node_theta), stripes, length)


class Manifest(Record):
    """Plain-text key=value sidecar: code parameters, then params_crc (the
    CRC-32 of the parameter lines, decimal), then one whole-file CRC-32 per
    shard (hex), keyed checksum_<i>_<theta>.  Reading checks params_crc, so
    a garbled parameter fails before any code is built from it."""

    __slots__ = (*_MANIFEST_KEYS, "checksums")

    def __init__(self, q: int, t: int, m: int, reduction_poly: int, c0: int,
                 stripe_count: int = 0, file_length: int = 0,
                 checksums: dict[Node, int] | None = None):
        self.q, self.t, self.m, self.reduction_poly, self.c0 = q, t, m, reduction_poly, c0
        self.stripe_count, self.file_length = stripe_count, file_length
        self.checksums = {} if checksums is None else checksums

    @classmethod
    def for_params(cls, params: CodeParams) -> "Manifest":
        if params.c0 is None:
            raise ValueError("manifest needs params with c0 set")
        return cls(params.q, params.t, params.gf.m, params.gf.poly, params.c0)

    def params(self) -> CodeParams:
        """The code it names; ShardFormatError unless the parameters make a
        code with a valid c0 within the size cap (parity.MAX_TERMS), and
        reduction_poly is the field's own (GF2M fixes one polynomial per m)."""
        try:
            params = make_params(self.q, self.t, self.m).with_c0(self.c0)
            _check_size(params)
            if self.reduction_poly != params.gf.poly:
                raise ValueError(f"reduction_poly {self.reduction_poly:#x} is not "
                                 f"GF(2^{self.m})'s polynomial {params.gf.poly:#x}")
        except ValueError as err:
            raise ShardFormatError(f"manifest parameters are invalid: {err}") from None
        return params

    def encoded_params(self) -> CodeParams:
        """params(), once this is checked to be a manifest encode wrote: a
        checksum for every node of the code and no other, and a stripe count
        that fits the file length (ShardFormatError), before any shard is
        trusted or system built."""
        params = self.params()
        if set(self.checksums) != set(params.nodes()):
            raise ShardFormatError("manifest checksums do not name exactly the nodes of the code")
        if self.stripe_count != stripe_count_for(self.file_length, params.message_len,
                                                 params.gf.m):
            raise ShardFormatError("manifest stripe_count does not fit file_length")
        return params

    def _param_lines(self) -> list[str]:
        return [f"{key}={getattr(self, key)}" for key in _MANIFEST_KEYS]

    def _params_crc(self) -> int:
        """CRC-32 of the parameter lines, as to_text writes them."""
        return zlib.crc32("".join(line + "\n" for line in self._param_lines()).encode())

    def to_text(self) -> str:
        lines = [*self._param_lines(), f"params_crc={self._params_crc()}"]
        for (i, theta), crc in sorted(self.checksums.items()):
            lines.append(f"checksum_{i}_{theta}={crc:08x}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Manifest":
        values: dict[str, int] = {}
        checksums: dict[Node, int] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ShardFormatError(f"manifest line {lineno} is not key=value: {line!r}")
            if key in _REQUIRED_KEYS:
                if key in values:  # fail closed: no silent last-one-wins
                    raise ShardFormatError(f"manifest repeats {key!r}")
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ShardFormatError(f"manifest value {line!r} is not an integer") from None
            elif key.startswith("checksum_"):
                try:
                    _, i, theta = key.split("_")
                    node, crc = (int(i), int(theta)), int(value, 16)
                except ValueError:
                    raise ShardFormatError(f"bad checksum key {key!r}") from None
                if node in checksums:
                    raise ShardFormatError(f"manifest repeats the checksum of node {node}")
                checksums[node] = crc
            else:
                raise ShardFormatError(f"unknown manifest key {key!r}")
        missing = [k for k in _REQUIRED_KEYS if k not in values]
        if missing:
            raise ShardFormatError(f"manifest is missing keys: {', '.join(missing)}")
        crc = values.pop("params_crc")
        manifest = cls(checksums=checksums, **values)
        if manifest._params_crc() != crc:
            raise ShardFormatError("manifest parameter lines do not match their params_crc")
        return manifest

    def write(self, path: Path | str) -> None:
        """Replace the manifest file crash-safely (see `replacing`)."""
        with replacing(path) as f:
            f.write(self.to_text().encode())

    @classmethod
    def read(cls, path: Path | str) -> "Manifest":
        try:
            text = Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as err:
            raise ShardFormatError(f"{path}: manifest is not UTF-8 text "
                                   f"(byte {err.start})") from None
        return cls.from_text(text)

    @classmethod
    def load(cls, directory: Path | str, advice: str = "run `msrcode init` first") -> "Manifest":
        """The manifest in `directory`; FileNotFoundError, with `advice`
        after the path, if it has none."""
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise FileNotFoundError(f"{path} not found; {advice}")
        return cls.read(path)

    def header_for(self, node: Node) -> ShardHeader:
        return ShardHeader(self.q, self.t, self.m, self.reduction_poly, self.c0,
                           node, self.stripe_count, self.file_length)

    def matches_header(self, hdr: ShardHeader) -> bool:
        """Whether `hdr` is header_for(n) for a node n with a checksum here:
        after encoded_params, a node of the code."""
        return hdr.node in self.checksums and hdr == self.header_for(hdr.node)


def shard_filename(node: Node) -> str:
    return f"shard_{node[0]}_{node[1]}.msrc"


# -- bytes <-> blocks -----------------------------------------------------------


def stripe_count_for(file_length: int, message_len: int, m: int) -> int:
    """The fewest stripes that hold file_length bytes: a stripe holds
    message_len symbols of m bits."""
    return -(-8 * file_length // (message_len * m))


def symbols_from_bytes(data: bytes, m: int, rows: int, stripes: int) -> Block:
    """The (rows, stripes) block whose bytes begin with `data`, zero-filled
    past its end: plane after plane, `stripes` bits each (see Block)."""
    size = -(-rows * m * stripes // 8)
    return Block.from_bytes(data[:size].ljust(size, b"\0"), m, rows, stripes)


def bytes_from_symbols(symbols: Block, m: int, byte_length: int) -> bytes:
    """The first byte_length bytes of the block's planes, in (row, bit)
    order: the inverse of symbols_from_bytes.  Raises ValueError on a block
    of other than m-bit symbols."""
    if symbols.m != m:
        raise ValueError(f"a block of {symbols.m}-bit symbols: not an element of GF(2^{m})")
    return symbols.to_bytes()[:byte_length]


# -- crash-safe writes ---------------------------------------------------------


def _temp_of(path: Path | str) -> Path:
    return Path(f"{path}.tmp")


@contextmanager
def renaming(path: Path | str) -> Iterator[Path]:
    """Yield the temp name <path>.tmp.  On a clean exit it is renamed over
    `path`; on an exception it is removed and `path` is left as it was."""
    tmp = _temp_of(path)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def remove_stale(paths: Iterable[Path | str]) -> None:
    """Remove the temp files (see `renaming`) of `paths` a killed run left."""
    for path in paths:
        _temp_of(path).unlink(missing_ok=True)


def sync_dir(path: Path | str) -> None:
    """fsync the directory `path`, so the renames made in it are durable:
    a rename is in the directory's entries, which a file's fsync leaves
    unsynced."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def synced(path: Path | str) -> Iterator[BinaryIO]:
    """Yield `path` open for writing; on a clean exit it is flushed and
    fsynced.  Every file written here is fsynced through it."""
    with open(path, "wb") as f:
        yield f
        f.flush()
        os.fsync(f.fileno())


@contextmanager
def replacing(path: Path | str) -> Iterator[BinaryIO]:
    """Yield <path>.tmp open for writing; on a clean exit it is fsynced and
    renamed over `path` (see `renaming`)."""
    with renaming(path) as tmp, synced(tmp) as f:
        yield f


# -- streaming the input ----------------------------------------------------------


def message_blocks(file_length: int, params: CodeParams) -> Iterator[tuple[int, int]]:
    """(stripes, input bytes) of each payload block of a file_length-byte
    input, in file order."""
    bits = params.message_len * params.gf.m  # per stripe
    for lo, hi in _blocks(stripe_count_for(file_length, params.message_len, params.gf.m)):
        yield hi - lo, min(file_length, hi * bits // 8) - lo * bits // 8


def read_messages(src: BinaryIO, file_length: int, params: CodeParams) -> Iterator[Block]:
    """Read a file_length-byte input one payload block at a time, yielding
    each block's bytes as its (message_len, stripes) Block: the input is
    the systematic planes, in (node, row, bit) order.  Between blocks it
    holds nothing it read."""
    for stripes, nbytes in message_blocks(file_length, params):
        data = src.read(nbytes)
        if len(data) != nbytes:
            raise OSError(f"input is shorter than {file_length} bytes; it changed while read")
        yield symbols_from_bytes(data, params.gf.m, params.message_len, stripes)


# -- shard reading/writing ----------------------------------------------------


def _blocks(stripe_count: int):
    """The [lo, hi) stripe range of every payload block, in file order."""
    for lo in range(0, stripe_count, BLOCK_STRIPES):
        yield lo, min(lo + BLOCK_STRIPES, stripe_count)


def row_digest(row: bytes) -> bytes:
    """The digest stored after a row's bytes: its 4-byte BLAKE2b."""
    # CPython's own BLAKE2, the one hashlib.blake2b is: 0.3 ms to import,
    # against 3-5 ms for hashlib, which loads OpenSSL; commands that touch
    # no row skip it
    from _blake2 import blake2b

    return blake2b(row, digest_size=DIGEST_LEN).digest()


def payload_bytes(stripes: int, rows: int, m: int) -> int:
    """Bytes a shard stores for `rows` rows of a block of `stripes`
    stripes: per row, m planes of `stripes` bits in whole bytes and a
    digest."""
    return rows * (-(-m * stripes // 8) + DIGEST_LEN)


def shard_bytes(hdr: ShardHeader) -> int:
    """The size of the shard file `hdr` describes: the header, then every
    block's rows, each with its digest.  In closed form, so that a garbled
    stripe count costs no time."""
    full, last = divmod(hdr.stripe_count, BLOCK_STRIPES)
    alpha = hdr.q**hdr.t
    return HEADER_LEN + full * payload_bytes(BLOCK_STRIPES, alpha, hdr.m) + \
        (payload_bytes(last, alpha, hdr.m) if last else 0)


class ShardWriter:
    """Appends a shard's payload, in file order, after its header, keeping
    the CRC-32 of every byte written so far in `crc`."""

    def __init__(self, f: BinaryIO, header: ShardHeader):
        self.file = f
        self.header = header
        self.stripes_written = 0
        self.crc = 0
        self._put(header.pack())

    def _put(self, data: bytes) -> None:
        self.file.write(data)
        self.crc = zlib.crc32(data, self.crc)

    def write(self, block: Block) -> None:
        """Append the next payload block: each of its alpha rows' planes,
        then that row's digest."""
        hdr = self.header
        shape = (hdr.m, hdr.q**hdr.t, min(BLOCK_STRIPES, hdr.stripe_count - self.stripes_written))
        if (block.m, block.rows, block.stripes) != shape:
            raise ValueError(f"a block of (m, rows, stripes) = {(block.m, block.rows, block.stripes)}"
                             f" is not the next block, {shape}, of a {hdr.stripe_count}-stripe shard")
        parts = []
        for r in range(block.rows):
            row = block[r : r + 1].to_bytes()
            parts += (row, row_digest(row))
        self._put(b"".join(parts))
        self.stripes_written += block.stripes


def write_shard(shards: Mapping[Path | str, ShardHeader],
                blocks: Iterable[Mapping[Node, Block]],
                renames: contextlib.ExitStack) -> dict[Node, int]:
    """Write one shard per (path, header) of `shards` in a single pass over
    `blocks`, each of which maps every header's node to its next payload
    block.  Every shard is written to its temp file and fsynced (`synced`)
    before this returns; a shard short of stripes raises.  The shards are
    renamed into place (see `renaming`) when `renames` closes, so the caller can check or record
    their CRCs first.  Returns the CRC-32 of each node's file, from the
    bytes as written."""
    with contextlib.ExitStack() as files:
        writers = {}
        for path, header in shards.items():
            tmp = renames.enter_context(renaming(path))
            writers[path] = ShardWriter(files.enter_context(synced(tmp)), header)
        for block in blocks:
            for writer in writers.values():
                writer.write(block[writer.header.node])
            del block  # freed before the next block is built
        for path, writer in writers.items():
            if writer.stripes_written != writer.header.stripe_count:
                raise ValueError(f"{path}: {writer.stripes_written} of "
                                 f"{writer.header.stripe_count} stripes written")
    return {writer.header.node: writer.crc for writer in writers.values()}


class ShardReader:
    """An open shard whose header and file size were checked on opening,
    before any payload read.  Stream the payload with blocks(runs), which
    checks the digest of every row it reads.  `bytes_read` and `reads`
    count the bytes and read() calls made, the header's included."""

    def __init__(self, f: BinaryIO, path):
        self.path, self._f = path, f
        self.bytes_read = self.reads = self.crc = 0
        self.header = ShardHeader.unpack(self._read(0, HEADER_LEN))
        size, expected = os.fstat(f.fileno()).st_size, shard_bytes(self.header)
        if size != expected:
            raise ShardFormatError(f"{path}: file is {size} bytes, header implies {expected}")

    def _read(self, offset: int, size: int) -> bytes:
        """`size` bytes at `offset`, in one seek and one read(), counted and
        added to `crc`: the CRC-32 of the bytes read so far, in read order.
        ShardFormatError if the file ends first."""
        self._f.seek(offset)
        data = self._f.read(size)
        self.bytes_read += len(data)
        self.reads += 1
        if len(data) != size:
            raise ShardFormatError(f"{self.path}: truncated shard")
        self.crc = zlib.crc32(data, self.crc)
        return data

    def blocks(self, runs: list[tuple[int, int]]) -> Iterator[Block]:
        """The rows in `runs` ((start ordinal, length) pairs, ascending) of
        every payload block, in file order, as one (sum of run lengths,
        stripes) Block each: one seek and one read per run per block, every
        row checked against its digest.  Each read extends `crc`, so after
        a whole read, runs [(0, alpha)], it is the CRC-32 of the whole file.
        Between blocks it holds none of the bytes it read."""
        hdr = self.header
        m, alpha, base = hdr.m, hdr.q**hdr.t, HEADER_LEN
        for index, (lo, hi) in enumerate(_blocks(hdr.stripe_count)):
            stripes = hi - lo
            row_bytes = payload_bytes(stripes, 1, m)
            planes = []
            for start, length in runs:
                view = memoryview(self._read(base + start * row_bytes, length * row_bytes))
                for r in range(length):
                    end = (r + 1) * row_bytes - DIGEST_LEN
                    row = view[r * row_bytes : end]
                    if row_digest(row) != view[end : end + DIGEST_LEN]:
                        raise ShardFormatError(f"{self.path}: block {index}: row {start + r} "
                                               "does not match its digest")
                    planes += Block.from_bytes(row, m, 1, stripes).planes
            yield Block(m, stripes, planes)
            base += alpha * row_bytes


@contextmanager
def open_shard(path: Path | str, manifest: Manifest | None = None,
               node: Node | None = None) -> Iterator[ShardReader]:
    """The ShardReader of `path`.  Given a manifest, ShardFormatError naming
    the path unless the header is manifest.header_for(n) for a node n of the
    code (matches_header), n = `node` when given."""
    with open(path, "rb") as f:
        shard = ShardReader(f, path)
        if manifest is not None and not (manifest.matches_header(shard.header)
                                         and node in (None, shard.header.node)):
            raise ShardFormatError(f"{path}: header disagrees with manifest")
        yield shard


def _join(blocks: Iterable[Block], rows: int, m: int) -> Block:
    """Blocks of the same rows side by side, their stripes in order."""
    whole = Block(m, 0, [0] * (rows * m))
    for block in blocks:
        whole.planes = [a | b << whole.stripes for a, b in zip(whole.planes, block.planes)]
        whole.stripes += block.stripes
    return whole


def read_shard(path: Path | str) -> tuple[ShardHeader, Block]:
    """Read a whole shard back as (header, (alpha, stripe_count) Block)."""
    with open_shard(path) as shard:
        hdr = shard.header
        alpha = hdr.q**hdr.t
        rows = _join(shard.blocks([(0, alpha)]), alpha, hdr.m)
    return hdr, rows


def read_gamma(path: Path | str, failed: Node,
               params: CodeParams) -> tuple[ShardHeader, Block, int]:
    """Read only the helper rows of a shard, with their digests: one seek and
    read per run of params.gamma_runs(failed) per block.  Returns the
    header, the (beta, stripe_count) Block, and the byte count read."""
    with open_shard(path) as shard:
        hdr = shard.header
        if (hdr.q, hdr.t, hdr.m) != (params.q, params.t, params.gf.m):
            raise ShardFormatError(f"{path}: header parameters do not match")
        rows = _join(shard.blocks(params.gamma_runs(failed)), params.beta, hdr.m)
    return hdr, rows, shard.bytes_read


def crc32_file(path: Path | str) -> int:
    crc = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc
