"""Shard and manifest file formats, block-at-a-time shard I/O, and the
byte<->symbol packing.

Shard layout (format version 2): a fixed 26-byte header, then the payload
in blocks of BLOCK_STRIPES stripes; the last block holds the remainder.
The block for stripes [lo, hi) stores the alpha rows in row-ordinal order,
each row as hi - lo contiguous symbols, so a helper's rows for one repair
are a few long byte runs per block.  Every symbol is 2 bytes little-endian
regardless of m.  The header's reduction_poly field stores the polynomial
without its implicit leading x^m bit so degree-16 polynomials fit in two
bytes; the plain-text manifest records the full integer.

Shards are read and written one block at a time, so memory is O(block)
whatever the file size.  In memory, as on disk, a block is (rows, stripes):
a uint16 array with one row per symbol of the node.  `open_shard` yields a
ShardReader, which checks the header and the file size before any payload
read, then streams whole (alpha, stripes) blocks as read (keeping a running
CRC-32 of the bytes it read, in file order) or only the helper-row runs of
each block, as (beta, stripes); read_shard and read_gamma join the blocks.
No reader or writer keeps a block once the next one is read.
`write_shard` writes one or more shards in one pass over a stream of
blocks, through a ShardWriter per shard that takes exactly the next block
and keeps a running CRC-32.  Every file written here goes to <name>.tmp, is
fsynced, and only then is renamed over <name> (`renaming`, `replacing`), so
an error or a crash part-way never leaves a partial file under the real
name; a command fsyncs each directory once after its last rename there
(`sync_dir`), so the renames are durable too.

Files are packed m bits per message symbol, LSB-first within each byte, so
any byte stream round-trips through any field.  At m = 8 or 16 a symbol is
whole little-endian bytes, so packing is one widening copy and unpacking a
range check and one narrowing copy.  For other m, eight m-bit symbols are
exactly m bytes, so packing works on whole 8-symbol groups, viewed as a
(groups, m) byte array: each of the 8 symbol columns is built from the (at
most 3) byte columns its bits span, and unpacking builds each of the m
byte columns from the symbol columns its bits span, all widened to uint32
before any shift.  A payload block of stripes packs BLOCK_STRIPES *
message_len * m / 8 input bytes, a whole number because BLOCK_STRIPES is a
multiple of 8, so an input packed block by block (`read_messages`) gives
the symbols of a whole-file packing; the stream runs stripe by stripe, so
a (message_len, stripes) block is its transpose, which read_messages
copies out contiguous.  file_length in the header/manifest recovers the
exact byte count after the zero-fill to a whole stripe.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping

from ._lazy import np
from .params import CodeParams, Node, make_params

MAGIC = b"MSRC"
FORMAT_VERSION = 2
# stripes per payload block; fixed by format version 2, and a multiple of 8
# so that every block but the last packs a whole number of input bytes
BLOCK_STRIPES = 4096
_HEADER = struct.Struct("<4sBBBBHHBBIQ")
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


@dataclass(frozen=True)
class ShardHeader:
    q: int
    t: int
    m: int
    reduction_poly: int  # full polynomial, leading bit included
    c0: int
    node: Node
    stripe_count: int
    file_length: int

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


@dataclass
class Manifest:
    """Plain-text key=value sidecar: code parameters, then params_crc (the
    CRC-32 of the parameter lines, decimal), then one whole-file CRC-32 per
    shard (hex), keyed checksum_<i>_<theta>.  Reading checks params_crc, so
    a garbled parameter fails before any code is built from it."""

    q: int
    t: int
    m: int
    reduction_poly: int
    c0: int
    stripe_count: int = 0
    file_length: int = 0
    checksums: dict[Node, int] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: CodeParams) -> "Manifest":
        if params.c0 is None:
            raise ValueError("manifest needs params with c0 set")
        return cls(params.q, params.t, params.gf.m, params.gf.poly, params.c0)

    def params(self) -> CodeParams:
        return make_params(self.q, self.t, self.m, self.reduction_poly).with_c0(self.c0)

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

    def header_for(self, node: Node) -> ShardHeader:
        return ShardHeader(self.q, self.t, self.m, self.reduction_poly, self.c0,
                           node, self.stripe_count, self.file_length)

    def matches_header(self, hdr: ShardHeader) -> bool:
        return hdr == self.header_for(hdr.node)


def shard_filename(node: Node) -> str:
    return f"shard_{node[0]}_{node[1]}.msrc"


# -- byte <-> symbol packing --------------------------------------------------


def stripe_count_for(file_length: int, message_len: int, m: int) -> int:
    """Stripes needed to hold file_length bytes at m bits per symbol."""
    if file_length == 0:
        return 0
    return -(-(file_length * 8) // (message_len * m))


def symbols_from_bytes(data: bytes, m: int, total_symbols: int) -> np.ndarray:
    """Pack a byte stream into symbols: m bits each, LSB-first; zero-fills
    past the end of the data.  When m is 8 or 16 a symbol is whole
    little-endian bytes, so this is one widening copy.  Otherwise it works
    on 8-symbol groups, which are m bytes each: symbol j of every group is
    the OR of the (at most 3) byte columns its bits span, each widened to
    uint32 and shifted into place."""
    if m % 8 == 0:
        out = np.zeros(total_symbols, "<u2")
        dst = out if m == 8 else out.view(np.uint8)
        count = min(len(data), dst.size)
        dst[:count] = np.frombuffer(data, dtype=np.uint8, count=count)
        return out.astype(np.uint16, copy=False)
    groups = -(-total_symbols // 8)
    raw = np.zeros(groups * m, dtype=np.uint8)
    count = min(len(data), raw.size)
    raw[:count] = np.frombuffer(data, dtype=np.uint8, count=count)
    cols = raw.reshape(groups, m)
    out = np.empty((groups, 8), dtype=np.uint16)
    for j in range(8):
        lo = j * m  # first bit of symbol j in its group
        first, last = lo // 8, (lo + m - 1) // 8
        acc = cols[:, first].astype(np.uint32) >> (lo - 8 * first)
        for b in range(first + 1, last + 1):
            acc |= cols[:, b].astype(np.uint32) << (8 * b - lo)
        if 8 * (last + 1) - lo > m:  # the last byte holds bits of symbol j+1
            acc &= (1 << m) - 1
        out[:, j] = acc
    return out.reshape(-1)[:total_symbols]


def bytes_from_symbols(symbols: np.ndarray, m: int, byte_length: int) -> bytes:
    """Inverse of symbols_from_bytes, truncated to the original byte count.
    `symbols` is a (message_len, stripes) block, or a flat symbol stream;
    its transpose is the stream order.  Raises ValueError on a symbol of
    more than m bits, whose high bits would land in the next symbol's.
    When m is 8 or 16 this is the range check plus one narrowing copy of
    the transpose into whole little-endian bytes.  Otherwise the transpose
    is copied once into 8-symbol groups, then byte b of every group is the
    OR of the symbol columns its bits span (at most ceil(8/m) + 1), each
    widened to uint32 before any shift."""
    stream = symbols.T.astype(np.uint16, copy=False)
    if m % 8 == 0:
        if m == 8 and int(stream.max(initial=0)) >> m:
            raise ValueError(f"a symbol is not an element of GF(2^{m})")
        out = np.empty(stream.shape, "<u1" if m == 8 else "<u2")
        out[...] = stream
        return out.reshape(-1).view(np.uint8)[:byte_length].tobytes()
    total = stream.size
    groups = -(-total // 8)
    grouped = np.zeros((groups, 8), dtype=np.uint16)
    grouped.reshape(-1)[:total].reshape(stream.shape)[...] = stream
    if int(grouped.max(initial=0)) >> m:
        raise ValueError(f"a symbol is not an element of GF(2^{m})")
    out = np.empty((groups, m), dtype=np.uint8)
    for b in range(m):
        first, last = 8 * b // m, (8 * b + 7) // m
        acc = grouped[:, first].astype(np.uint32) >> (8 * b - first * m)
        for j in range(first + 1, last + 1):
            acc |= grouped[:, j].astype(np.uint32) << (j * m - 8 * b)
        out[:, b] = acc  # keeps the low 8 bits
    return out.reshape(-1)[: min(byte_length, -(-total * m // 8))].tobytes()


# -- crash-safe writes ---------------------------------------------------------


@contextmanager
def renaming(path: Path | str) -> Iterator[Path]:
    """Yield the temp name <path>.tmp.  On a clean exit it is renamed over
    `path`; on an exception it is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _sync(f: BinaryIO) -> None:
    f.flush()
    os.fsync(f.fileno())


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
    """Yield `path` open for writing; on a clean exit it is fsynced."""
    with open(path, "wb") as f:
        yield f
        _sync(f)


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


def read_messages(src: BinaryIO, file_length: int,
                  params: CodeParams) -> Iterator[np.ndarray]:
    """Read a file_length-byte input one payload block at a time, yielding
    each block's packed symbols as a contiguous (message_len, stripes)
    array, so the plan reads whole rows.  Between blocks it holds nothing
    it read."""
    for stripes, nbytes in message_blocks(file_length, params):
        yield _message_block(src, stripes, nbytes, file_length, params)


def _message_block(src: BinaryIO, stripes: int, nbytes: int, file_length: int,
                   params: CodeParams) -> np.ndarray:
    data = src.read(nbytes)
    if len(data) != nbytes:
        raise OSError(f"input is shorter than {file_length} bytes; it changed while read")
    symbols = symbols_from_bytes(data, params.gf.m, stripes * params.message_len)
    del data  # freed before the transposing copy
    return np.ascontiguousarray(symbols.reshape(stripes, params.message_len).T)


# -- shard reading/writing ----------------------------------------------------


def _blocks(stripe_count: int):
    """The [lo, hi) stripe range of every payload block, in file order."""
    for lo in range(0, stripe_count, BLOCK_STRIPES):
        yield lo, min(lo + BLOCK_STRIPES, stripe_count)


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

    def write(self, block: np.ndarray) -> None:
        """Append the next payload block: its (alpha, stripes) rows, as is."""
        hdr = self.header
        shape = (hdr.q**hdr.t, min(BLOCK_STRIPES, hdr.stripe_count - self.stripes_written))
        if block.shape != shape:
            raise ValueError(f"a block of shape {block.shape} is not the next block, "
                             f"{shape}, of a {hdr.stripe_count}-stripe shard")
        self._put(np.asarray(block, dtype="<u2").tobytes())
        self.stripes_written += shape[1]


def write_shard(shards: Mapping[Path | str, ShardHeader],
                blocks: Iterable[Mapping[Node, np.ndarray]],
                renames: contextlib.ExitStack) -> dict[Node, int]:
    """Write one shard per (path, header) of `shards` in a single pass over
    `blocks`, each of which maps every header's node to its next payload
    block.  Every shard is written to its temp file and fsynced; a shard
    short of stripes raises.  The shards are renamed into place (see
    `renaming`) when `renames` closes, so the caller can check or record
    their CRCs first.  Returns the CRC-32 of each node's file, from the
    bytes as written."""
    with contextlib.ExitStack() as files:
        writers = {}
        for path, header in shards.items():
            tmp = renames.enter_context(renaming(path))
            writers[path] = ShardWriter(files.enter_context(open(tmp, "wb")), header)
        for block in blocks:
            for writer in writers.values():
                writer.write(block[writer.header.node])
            del block  # freed before the next block is built
        for path, writer in writers.items():
            if writer.stripes_written != writer.header.stripe_count:
                raise ValueError(f"{path}: {writer.stripes_written} of "
                                 f"{writer.header.stripe_count} stripes written")
            _sync(writer.file)
    return {writer.header.node: writer.crc for writer in writers.values()}


def payload_bytes(stripes: int, rows: int) -> int:
    """Bytes a shard stores for `rows` symbols on each of `stripes` stripes."""
    return stripes * rows * 2


def _check_file_size(f, hdr: ShardHeader, path) -> None:
    """Reject a shard whose length disagrees with its header, reading nothing."""
    size = os.fstat(f.fileno()).st_size
    expected = HEADER_LEN + payload_bytes(hdr.stripe_count, hdr.q**hdr.t)
    if size != expected:
        raise ShardFormatError(f"{path}: file is {size} bytes, header implies {expected}")


class CountingReader:
    """Thin file wrapper that accounts every byte and read() call actually
    requested; the instrumentation behind the partial-read guarantees."""

    def __init__(self, f: BinaryIO):
        self._f = f
        self.bytes_read = 0
        self.reads = 0

    def seek(self, pos: int) -> None:
        self._f.seek(pos)

    def read(self, size: int) -> bytes:
        data = self._f.read(size)
        self.bytes_read += len(data)
        self.reads += 1
        return data


class ShardReader:
    """An open shard whose header and file size were checked on opening,
    before any payload read.  Stream the payload with blocks() or
    gamma_blocks(); `counter` counts the bytes and read() calls made."""

    def __init__(self, f: BinaryIO, path):
        self.path = path
        self.counter = CountingReader(f)
        head = self.counter.read(HEADER_LEN)
        self.header = ShardHeader.unpack(head)
        self.crc = zlib.crc32(head)  # of the bytes read in file order so far
        _check_file_size(f, self.header, path)

    def _rows(self, rows: int, width: int, at: int | None = None) -> np.ndarray:
        """The next rows*width symbols as a (rows, width) array, checked to
        be field symbols: read in file order, which extends `crc`, or, with
        `at`, from that byte offset."""
        if at is not None:
            self.counter.seek(at)
        data = self.counter.read(rows * width * 2)
        if len(data) != rows * width * 2:
            raise ShardFormatError(f"{self.path}: truncated shard payload")
        symbols = np.frombuffer(data, dtype="<u2").reshape(rows, width)
        if self.header.m < 16 and int(symbols.max()) >= 1 << self.header.m:
            raise ShardFormatError(f"{self.path}: symbol out of range for GF(2^{self.header.m})")
        if at is None:
            self.crc = zlib.crc32(data, self.crc)
        return symbols

    def blocks(self) -> Iterator[np.ndarray]:
        """The (alpha, stripes) rows of every block, as read, in file order.
        Once it is exhausted, `crc` is the CRC-32 of the whole file.  Between
        blocks it holds none of the bytes it read."""
        alpha = self.header.q**self.header.t
        for lo, hi in _blocks(self.header.stripe_count):
            yield self._rows(alpha, hi - lo)

    def gamma_blocks(self, runs: list[tuple[int, int]]) -> Iterator[np.ndarray]:
        """The rows in `runs` ((start ordinal, length) pairs) of every block,
        stacked as (sum of run lengths, stripes), reading only those rows:
        one seek and read per run per block."""
        alpha = self.header.q**self.header.t
        base = HEADER_LEN
        for lo, hi in _blocks(self.header.stripe_count):
            width = hi - lo
            yield np.concatenate([self._rows(length, width, at=base + payload_bytes(width, start))
                                  for start, length in runs])
            base += payload_bytes(width, alpha)


@contextmanager
def open_shard(path: Path | str) -> Iterator[ShardReader]:
    with open(path, "rb") as f:
        yield ShardReader(f, path)


def read_shard(path: Path | str) -> tuple[ShardHeader, np.ndarray]:
    """Read a whole shard back as (header, (alpha, stripe_count) array)."""
    with open_shard(path) as shard:
        hdr = shard.header
        rows = np.concatenate([np.empty((hdr.q**hdr.t, 0), "<u2"), *shard.blocks()], axis=1)
    return hdr, rows


def gamma_runs(failed: Node, params: CodeParams) -> list[tuple[int, int]]:
    """Helper-row ordinals coalesced into (start, length) runs of
    consecutive rows, so each block needs at most beta reads."""
    ordinals = [params.row_ordinal(r) for r in params.gamma_rows(failed)]
    runs: list[tuple[int, int]] = []
    start = prev = ordinals[0]
    for o in ordinals[1:]:
        if o == prev + 1:
            prev = o
            continue
        runs.append((start, prev - start + 1))
        start = prev = o
    runs.append((start, prev - start + 1))
    return runs


def read_gamma(path: Path | str, failed: Node,
               params: CodeParams) -> tuple[ShardHeader, np.ndarray, int]:
    """Read only the helper-row symbols of a shard: one seek and read per
    run of gamma_runs per block, exactly header + 2*beta bytes per stripe.
    Returns the header, the (beta, stripe_count) symbol stack, and the byte
    count read."""
    with open_shard(path) as shard:
        hdr = shard.header
        if (hdr.q, hdr.t, hdr.m) != (params.q, params.t, params.gf.m):
            raise ShardFormatError(f"{path}: header parameters do not match")
        blocks = shard.gamma_blocks(gamma_runs(failed, params))
        rows = np.concatenate([np.empty((params.beta, 0), "<u2"), *blocks], axis=1)
    return hdr, rows, shard.counter.bytes_read


def crc32_file(path: Path | str) -> int:
    crc = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc
