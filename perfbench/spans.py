"""Span trees written by tracer.py, and the per-layer numbers derived
from them: calls, inclusive seconds, self seconds, work and shard I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    name: str
    start: int            # ns, perf_counter of the traced process
    end: int
    parent: int           # index of the enclosing span, -1 for the root
    run: str              # which child process recorded it
    work: float = 0.0     # bytes (symbols for gf.mul_vec) the call processed
    read_bytes: int = 0   # shard-file bytes read while this span was innermost
    write_bytes: int = 0
    read_calls: int = 0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def load(path: Path | str) -> list[Span]:
    doc = json.loads(Path(path).read_text())
    names, run = doc["names"], doc["run"]
    return [Span(names[n], s, e, p, run, w, rb, wb, rc)
            for n, s, e, p, w, rb, wb, rc in doc["spans"]]


def self_times(spans: list[Span]) -> list[float]:
    """Seconds of each span not covered by its direct children (the union
    of their intervals, clipped to the span)."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for ch in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, sp.start), min(ch.end, sp.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((sp.end - sp.start - covered) / 1e9)
    return out


@dataclass
class Layer:
    calls: int = 0
    seconds: float = 0.0      # inclusive, outermost spans of the name only
    self_s: float = 0.0
    work: float = 0.0
    read_bytes: int = 0
    write_bytes: int = 0
    read_calls: int = 0


def layers(spans: list[Span]) -> dict[str, Layer]:
    """Per-name totals over one or more span trees (span parents index into
    the list of their own run, so pass each run's spans as loaded)."""
    out: dict[str, Layer] = {}
    by_run: dict[str, list[Span]] = {}
    for sp in spans:
        by_run.setdefault(sp.run, []).append(sp)
    for run_spans in by_run.values():
        for i, (sp, self_s) in enumerate(zip(run_spans, self_times(run_spans))):
            lay = out.setdefault(sp.name, Layer())
            lay.calls += 1
            lay.self_s += self_s
            lay.work += sp.work
            lay.read_bytes += sp.read_bytes
            lay.write_bytes += sp.write_bytes
            lay.read_calls += sp.read_calls
            if not _has_ancestor_named(run_spans, i, sp.name):
                lay.seconds += sp.seconds
    return out


def _has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(children) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), of one traced sample: children
    with `spans`, `wall_s` and `main_s` (the duration of the cli.<command>
    root span).  Layers the sample never entered read as zero."""
    lay = layers([sp for c in children for sp in c.spans])
    get = lambda name: lay.get(name, Layer())   # noqa: E731
    mib = 1 << 20
    out: dict[str, tuple[float, str]] = {}

    g = get("gf.mul_vec")
    out["gf.mul_vec.calls"] = (g.calls, "count")
    out["gf.mul_vec.self_s"] = (g.self_s, "s")
    out["gf.mul_vec.Msym_per_s"] = (_rate(g.work, g.seconds) / 1e6, "Msym/s")

    out["parity.find_code.s"] = (get("parity.find_code").seconds, "s")
    out["parity.gf_rank.calls"] = (get("parity.gf_rank").calls, "count")
    for fn in ("check_mds_ranks", "build_system", "completion_map", "inverse_for"):
        out[f"parity.{fn}.s"] = (get(f"parity.{fn}").seconds, "s")

    for fn in ("encode_batch", "decode_batch"):
        c = get(f"codec.{fn}")
        out[f"codec.{fn}.MBps"] = (_rate(c.work, c.seconds) / mib, "MiB/s")
        out[f"codec.{fn}.self_s"] = (c.self_s, "s")
    out["codec.verify_mds.s"] = (get("codec.verify_mds").seconds, "s")
    out["codec.encode.calls"] = (get("codec.encode").calls, "count")
    d = get("codec.decode_from_k")
    out["codec.decode_from_k.calls"] = (d.calls, "count")
    out["codec.decode_from_k.mean_ms"] = (1e3 * d.seconds / d.calls if d.calls else 0.0, "ms")

    r = get("repair.repair_batch")
    out["repair.repair_batch.MBps"] = (_rate(r.work, r.seconds) / mib, "MiB/s")
    out["repair.repair_batch.self_s"] = (r.self_s, "s")

    for fn in ("symbols_from_bytes", "bytes_from_symbols"):
        s = get(f"shardio.{fn}")
        out[f"shardio.{fn}.MBps"] = (_rate(s.work, s.seconds) / mib, "MiB/s")
    w = get("shardio.write_shard")
    out["shardio.write_shard.MBps"] = (_rate(w.write_bytes, w.seconds) / mib, "MiB/s")
    out["shardio.write_shard.bytes"] = (w.write_bytes, "bytes")
    rs = get("shardio.read_shard")
    out["shardio.read_shard.MBps"] = (_rate(rs.read_bytes, rs.seconds) / mib, "MiB/s")
    rg = get("shardio.read_gamma")
    out["shardio.read_gamma.self_s"] = (rg.self_s, "s")
    out["shardio.read_gamma.bytes"] = (rg.read_bytes, "bytes")
    out["shardio.read_calls"] = (sum(x.read_calls for x in lay.values()), "count")
    out["shardio.crc32_file.s"] = (get("shardio.crc32_file").seconds, "s")

    cli = {name: x for name, x in lay.items() if name.startswith("cli.")}
    for name, x in cli.items():
        out[f"{name}.self_s"] = (x.self_s, "s")
    out["cli.round.self_s"] = (sum(x.self_s for name, x in cli.items() if name != "cli.init"),
                               "s")
    out["cli.startup_s"] = (sum(c.wall_s - c.main_s for c in children)
                            / len(children), "s")
    return out
