"""Shard and manifest file formats, plus the byte<->symbol packing.

Shard layout (format version 2): a fixed 26-byte header, then the payload
in blocks of BLOCK_STRIPES stripes; the last block holds the remainder.
The block for stripes [lo, hi) stores the alpha rows in row-ordinal order,
each row as hi - lo contiguous symbols, so a helper's rows for one repair
are a few long byte runs per block.  Every symbol is 2 bytes little-endian
regardless of m.  The header's reduction_poly field stores the polynomial
without its implicit leading x^m bit so degree-16 polynomials fit in two
bytes; the plain-text manifest records the full integer.

Files are packed m bits per message symbol, LSB-first within each byte, so
any byte stream round-trips through any field; at m=16 this is exactly two
bytes little-endian per symbol.  file_length in the header/manifest
recovers the exact byte count after the zero-fill to a whole stripe.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .params import CodeParams, Node, make_params

MAGIC = b"MSRC"
FORMAT_VERSION = 2
BLOCK_STRIPES = 4096  # stripes per payload block; fixed by format version 2
_HEADER = struct.Struct("<4sBBBBHHBBIQ")
HEADER_LEN = _HEADER.size  # 26

MANIFEST_NAME = "manifest.txt"
_MANIFEST_KEYS = ("q", "t", "m", "reduction_poly", "c0", "stripe_count", "file_length")


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
    """Plain-text key=value sidecar: code parameters plus one whole-file
    CRC-32 per shard (hex), keyed checksum_<i>_<theta>."""

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

    def to_text(self) -> str:
        lines = [f"{key}={getattr(self, key)}" for key in _MANIFEST_KEYS]
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
            if key in _MANIFEST_KEYS:
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ShardFormatError(f"manifest value {line!r} is not an integer") from None
            elif key.startswith("checksum_"):
                try:
                    _, i, theta = key.split("_")
                    checksums[(int(i), int(theta))] = int(value, 16)
                except ValueError:
                    raise ShardFormatError(f"bad checksum key {key!r}") from None
            else:
                raise ShardFormatError(f"unknown manifest key {key!r}")
        missing = [k for k in _MANIFEST_KEYS if k not in values]
        if missing:
            raise ShardFormatError(f"manifest is missing keys: {', '.join(missing)}")
        return cls(checksums=checksums, **values)

    def write(self, path: Path | str) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def read(cls, path: Path | str) -> "Manifest":
        return cls.from_text(Path(path).read_text())

    def header_for(self, node: Node) -> ShardHeader:
        return ShardHeader(self.q, self.t, self.m, self.reduction_poly, self.c0,
                           node, self.stripe_count, self.file_length)

    def matches_header(self, hdr: ShardHeader) -> bool:
        return (self.q, self.t, self.m, self.reduction_poly, self.c0,
                self.stripe_count, self.file_length) == \
               (hdr.q, hdr.t, hdr.m, hdr.reduction_poly, hdr.c0,
                hdr.stripe_count, hdr.file_length)


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
    past the end of the data."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=total_symbols * m,
                         bitorder="little").reshape(total_symbols, m)
    out = np.zeros(total_symbols, dtype=np.uint16)
    for b in range(m):  # one bit plane at a time keeps the peak at 2 bytes per symbol
        out |= bits[:, b].astype(np.uint16) << b
    return out


def bytes_from_symbols(symbols: np.ndarray, m: int, byte_length: int) -> bytes:
    """Inverse of symbols_from_bytes, truncated to the original byte count."""
    flat = np.asarray(symbols, dtype=np.uint16).reshape(-1)
    bits = np.empty((flat.size, m), dtype=np.uint8)
    for b in range(m):
        bits[:, b] = (flat >> b) & 1
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()[:byte_length]


# -- shard reading/writing ----------------------------------------------------


def _blocks(stripe_count: int):
    """The [lo, hi) stripe range of every payload block, in file order."""
    for lo in range(0, stripe_count, BLOCK_STRIPES):
        yield lo, min(lo + BLOCK_STRIPES, stripe_count)


def write_shard(path: Path | str, header: ShardHeader, columns: np.ndarray) -> None:
    """Write header plus an (stripe_count, alpha) column stack, one block
    of row-contiguous symbols at a time."""
    columns = np.asarray(columns, dtype="<u2")
    if columns.shape[0] != header.stripe_count:
        raise ValueError("column stack does not match header stripe_count")
    with open(path, "wb") as f:
        f.write(header.pack())
        for lo, hi in _blocks(header.stripe_count):
            f.write(columns[lo:hi].T.tobytes())


def _check_file_size(f, hdr: ShardHeader, path) -> None:
    """Reject a shard whose length disagrees with its header, reading nothing."""
    size = os.fstat(f.fileno()).st_size
    expected = HEADER_LEN + hdr.stripe_count * hdr.q**hdr.t * 2
    if size != expected:
        raise ShardFormatError(f"{path}: file is {size} bytes, header implies {expected}")


def _read_symbols(f, count: int, path) -> np.ndarray:
    data = f.read(count * 2)
    if len(data) != count * 2:
        raise ShardFormatError(f"{path}: truncated shard payload")
    return np.frombuffer(data, dtype="<u2")


def read_shard(path: Path | str) -> tuple[ShardHeader, np.ndarray]:
    """Read a whole shard back as (header, (stripe_count, alpha) array)."""
    with open(path, "rb") as f:
        hdr = ShardHeader.unpack(f.read(HEADER_LEN))
        _check_file_size(f, hdr, path)
        alpha = hdr.q**hdr.t
        columns = np.empty((hdr.stripe_count, alpha), dtype=np.uint16)
        for lo, hi in _blocks(hdr.stripe_count):
            block = _read_symbols(f, alpha * (hi - lo), path)
            columns[lo:hi] = block.reshape(alpha, hi - lo).T
    _check_symbol_range(columns, hdr.m, path)
    return hdr, columns


def _check_symbol_range(symbols: np.ndarray, m: int, path) -> None:
    if m < 16 and symbols.size and int(symbols.max()) >= 1 << m:
        raise ShardFormatError(f"{path}: symbol out of range for GF(2^{m})")


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
    Returns the header, the (stripe_count, beta) symbol stack, and the byte
    count read."""
    runs = gamma_runs(failed, params)
    alpha = params.alpha
    with open(path, "rb") as raw:
        f = CountingReader(raw)
        hdr = ShardHeader.unpack(f.read(HEADER_LEN))
        if (hdr.q, hdr.t, hdr.m) != (params.q, params.t, params.gf.m):
            raise ShardFormatError(f"{path}: header parameters do not match")
        _check_file_size(raw, hdr, path)
        out = np.empty((hdr.stripe_count, params.beta), dtype=np.uint16)
        base = HEADER_LEN
        for lo, hi in _blocks(hdr.stripe_count):
            width = hi - lo
            filled = 0
            for start, length in runs:
                f.seek(base + start * width * 2)
                rows = _read_symbols(f, length * width, path)
                out[lo:hi, filled : filled + length] = rows.reshape(length, width).T
                filled += length
            base += alpha * width * 2
    _check_symbol_range(out, hdr.m, path)
    return hdr, out, f.bytes_read


def crc32_file(path: Path | str) -> int:
    return zlib.crc32(Path(path).read_bytes()) & 0xFFFFFFFF
