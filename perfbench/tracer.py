"""Run one msrcode CLI command in-process, with a span around every call
into the public functions of each module, and write the spans out on exit.

    python3 perfbench/tracer.py SPANS.json RUN_ID -- <msrcode arguments>

The wrapping happens from outside: module attributes of codec, repair,
shardio and parity are replaced, as are the names cli imported directly
(find_code, build_system, check_mds_ranks) and the class attributes
GF2M.mul_vec and ParityCheckSystem.completion_map / inverse_for.  The scalar
GF2M.mul runs millions of times and is left alone.  A counting `open` in the
shardio namespace credits shard-file bytes and read() calls to the span
that is innermost when the file is closed (shardio opens every file in a
`with` block inside one function).  The root span is `cli.<command>`,
around main(argv).

Spans stay in memory; each is [name index, start ns, end ns, parent index,
work, bytes read, bytes written, read calls], where work is bytes (symbols
for gf.mul_vec) processed by the call.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter_ns
_names: list[str] = []
_name_index: dict[str, int] = {}
_spans: list[list] = []
_stack: list[int] = []

# span record fields
_START, _END, _WORK, _RBYTES, _WBYTES, _RCALLS = 1, 2, 4, 5, 6, 7


def _open_span(name: str) -> list:
    idx = _name_index.get(name)
    if idx is None:
        idx = _name_index[name] = len(_names)
        _names.append(name)
    rec = [idx, 0, 0, _stack[-1] if _stack else -1, 0, 0, 0, 0]
    _stack.append(len(_spans))
    _spans.append(rec)
    rec[_START] = _clock()
    return rec


def _close_span(rec: list) -> None:
    rec[_END] = _clock()
    _stack.pop()


def _wrap(name: str, fn, work=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = _open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close_span(rec)
        if work is not None:
            rec[_WORK] = work(args, result)
        return result
    return traced


def _account(field: int, amount: int) -> None:
    if _stack:
        _spans[_stack[-1]][field] += amount


class _CountingFile:
    """File proxy that counts the bytes and read() calls of shard I/O and
    credits them, on close, to the span that is innermost at that point."""

    __slots__ = ("_f", "_read", "seek", "reads", "nread", "nwritten")

    def __init__(self, f):
        self._f = f
        self._read = f.read
        self.seek = f.seek        # plain attribute: no proxy frame per seek
        self.reads = self.nread = self.nwritten = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()
        _account(_RBYTES, self.nread)
        _account(_RCALLS, self.reads)
        _account(_WBYTES, self.nwritten)

    def read(self, size: int = -1) -> bytes:
        data = self._read(size)
        self.reads += 1
        self.nread += len(data)
        return data

    def write(self, data) -> int:
        written = self._f.write(data)
        self.nwritten += written
        return written

    def __getattr__(self, attr):
        return getattr(self._f, attr)


def _counting_open(*args, **kwargs):
    return _CountingFile(open(*args, **kwargs))


def _user_bytes(array, sys_) -> float:
    """Bytes of user data a symbol array stands for: m bits per symbol."""
    return array.size * sys_.params.gf.m / 8


_WORK_FNS = {
    "codec.encode_batch": lambda a, r: _user_bytes(a[0], a[1]),
    "codec.decode_batch": lambda a, r: _user_bytes(r, a[1]),
    "repair.repair_batch": lambda a, r: _user_bytes(r, a[2]),
    "shardio.symbols_from_bytes": lambda a, r: len(a[0]),
    "shardio.bytes_from_symbols": lambda a, r: len(r),
    "gf.mul_vec": lambda a, r: a[2].size,
}

MODULE_FUNCTIONS = {
    "codec": ("encode_batch", "decode_batch", "verify_mds", "encode", "decode_from_k"),
    "repair": ("repair_batch",),
    "shardio": ("symbols_from_bytes", "bytes_from_symbols", "write_shard",
                "read_shard", "read_gamma", "crc32_file"),
    "parity": ("find_code", "build_system", "check_mds_ranks", "gf_rank"),
}


def install() -> None:
    """Put the spans and the counting open in place."""
    from msrcode import cli, codec, gf, parity, repair, shardio

    modules = {"codec": codec, "repair": repair, "shardio": shardio, "parity": parity}
    for short, names in MODULE_FUNCTIONS.items():
        mod = modules[short]
        for fn in names:
            name = f"{short}.{fn}"
            setattr(mod, fn, _wrap(name, getattr(mod, fn), _WORK_FNS.get(name)))
    for fn in ("find_code", "build_system", "check_mds_ranks"):
        setattr(cli, fn, getattr(parity, fn))
    gf.GF2M.mul_vec = _wrap("gf.mul_vec", gf.GF2M.mul_vec, _WORK_FNS["gf.mul_vec"])
    system = parity.ParityCheckSystem
    system.completion_map = _wrap("parity.completion_map", system.completion_map)
    system.inverse_for = _wrap("parity.inverse_for", system.inverse_for)
    shardio.open = _counting_open


def main(argv: list[str]) -> int:
    out_path, run_id, sep, *cli_argv = argv
    if sep != "--" or not cli_argv:
        print("usage: tracer.py SPANS.json RUN_ID -- <msrcode arguments>", file=sys.stderr)
        return 1
    install()
    from msrcode import cli

    rec = _open_span(f"cli.{cli_argv[0]}")
    try:
        code = cli.main(cli_argv)
    finally:
        _close_span(rec)
        with open(out_path, "w") as f:
            json.dump({"run": run_id, "names": _names, "spans": _spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
