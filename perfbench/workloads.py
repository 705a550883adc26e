"""The benchmark's workloads and the harness that runs them.

Load model: a closed loop with one client.  Every msrcode command is a
child process, started only after the previous one has exited, so at most
one runs at a time.  Each command's exit code and output bytes are checked;
a command that exits non-zero or leaves wrong bytes counts in failed_ops.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import spans as spanlib

MiB = 1 << 20
TRACER = Path(__file__).resolve().parent / "tracer.py"


@dataclass
class Child:
    """One finished msrcode child process."""

    args: list[str]
    wall_s: float                # fork to reap, as the parent sees it
    rss_MB: float                # the child's own peak RSS (wait4 rusage)
    code: int
    out: str
    err: str
    spans: list[spanlib.Span] | None = None    # traced children only

    @property
    def main_s(self) -> float:
        """In-process wall time of cli.main (the root span)."""
        return self.spans[0].seconds


class Session:
    """Runs msrcode commands from one checkout and tallies them."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.store = work / "store"
        self.deadline = deadline          # time.monotonic() by which to be done
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.children = 0

    def command(self, args: list[str], check=None, traced: bool = False) -> tuple[Child, bool]:
        """Run one command and judge it.  `check(child)` returns None when
        the outputs are right, else what is wrong with them."""
        child = run_child(self, args, traced)
        problem = None
        if child.code != 0:
            problem = f"exit {child.code}: {child.err.strip()[-300:]}"
        elif traced and not child.spans:
            problem = "the tracer wrote no spans"
        elif check is not None:
            problem = check(child)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{' '.join(args[:3])}: {problem}")
        return child, problem is None

    def manifest(self) -> dict[str, int]:
        """The store's manifest as key -> int (checksums parsed as hex)."""
        out = {}
        for line in (self.store / "manifest.txt").read_text().splitlines():
            key, _, value = line.partition("=")
            out[key] = int(value, 16) if key.startswith("checksum_") else int(value)
        return out


def run_child(sess: Session, args: list[str], traced: bool) -> Child:
    """Start one msrcode command, wait for it, and collect wall time, peak
    RSS, exit code, output and (traced) spans."""
    sess.children += 1
    spans_path = sess.work / f"spans_{sess.children}.json"
    if traced:
        argv = [sys.executable, str(TRACER), str(spans_path),
                f"{args[0]}-{sess.children}", "--", *args]
    else:
        argv = [sys.executable, "-m", "msrcode.cli", *args]
    timeout = max(1.0, sess.deadline - time.monotonic())
    with open(sess.work / "stdout", "w+b") as out, open(sess.work / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=sess.root, env=sess.env, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        child = Child(args, wall, usage.ru_maxrss / 1024, proc.returncode,
                      out.read().decode(errors="replace"), err.read().decode(errors="replace"))
    if traced and spans_path.exists():
        child.spans = spanlib.load(spans_path)
        spans_path.unlink()
    return child


def shard_name(node: tuple[int, int]) -> str:
    return f"shard_{node[0]}_{node[1]}.msrc"


def nodes(q: int, t: int) -> list[tuple[int, int]]:
    """All nodes, class-major; the last class holds the parity shards."""
    return [(i, theta) for i in range(1, t + 1) for theta in range(q)]


def store_bytes(store: Path) -> int:
    """Bytes of all shard files plus the manifest."""
    return sum(p.stat().st_size for p in store.iterdir()
               if p.suffix == ".msrc" or p.name == "manifest.txt")


def same_bytes(path: Path, expected: bytes) -> bool:
    try:
        return path.read_bytes() == expected
    except FileNotFoundError:
        return False


@dataclass
class Round:
    """One pass over a workload's timed commands."""

    children: list[Child] = field(default_factory=list)

    def add(self, result: tuple[Child, bool]) -> bool:
        child, ok = result
        self.children.append(child)
        return ok

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def rss_MB(self) -> float:
        return max(c.rss_MB for c in self.children)

    def walls(self, command: str) -> list[float]:
        return [c.wall_s for c in self.children if c.args[0] == command]


class Workload:
    """Base: the init arguments, untimed set-up, and one timed round."""

    name = ""
    init_args: list[str] = []

    def prepare(self, sess: Session, rng) -> None:
        """Make the inputs, before any command runs."""

    def after_init(self, sess: Session, rng) -> None:
        """Untimed set-up once the store is initialised."""

    def round(self, sess: Session, rng, traced: bool) -> Round:
        raise NotImplementedError

    def metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        """End-to-end metrics of this workload beyond the common ones."""
        return {}

    def references(self) -> dict[str, str]:
        """Paper-ideal values shown next to the count metrics."""
        return {}

    def inputs(self) -> dict[str, int]:
        return {}


class Ingest(Workload):
    """Encode a file, then decode it from a k-subset that lacks at least
    one systematic node.  Codec dominates; repair does nothing."""

    name = "ingest"

    def __init__(self, q: int = 3, t: int = 3, m: int = 8, size: int = 4 * MiB):
        self.q, self.t, self.size = q, t, size
        self.init_args = ["init", "--q", str(q), "--t", str(t), "--m", str(m)]
        self.storage: list[float] = []

    def inputs(self) -> dict[str, int]:
        return {"input_bytes": self.size}

    def prepare(self, sess: Session, rng) -> None:
        self.data = rng.randbytes(self.size)
        self.input = sess.work / "input.bin"
        self.input.write_bytes(self.data)

    def round(self, sess: Session, rng, traced: bool) -> Round:
        rnd = Round()
        if not rnd.add(sess.command(["encode", str(self.input), "--out-dir", str(sess.store)],
                                    traced=traced)):
            return rnd
        self.storage.append(store_bytes(sess.store) / self.size)
        every = nodes(self.q, self.t)
        k = len(every) - self.q
        subset = rng.sample(every, k)
        while set(subset) == set(every[:k]):
            subset = rng.sample(every, k)
        out = sess.work / "decoded.bin"
        out.unlink(missing_ok=True)
        shards = [str(sess.store / shard_name(nd)) for nd in subset]

        def check(child: Child) -> str | None:
            return None if same_bytes(out, self.data) else "decoded bytes differ from the input"

        rnd.add(sess.command(["decode", str(out), *shards], check=check, traced=traced))
        return rnd

    def metrics(self, rounds):
        mib = self.size / MiB
        return {
            "encode_MBps": (median(mib / r.walls("encode")[0] for r in rounds), "MiB/s"),
            "decode_MBps": (median(mib / r.walls("decode")[0] for r in rounds), "MiB/s"),
            "encode_rss_MB": (median(r.children[0].rss_MB for r in rounds), "MiB"),
            "decode_rss_MB": (median(r.children[1].rss_MB for r in rounds), "MiB"),
            "storage_ratio": (median(self.storage), "ratio"),
        }

    def references(self):
        n = self.q * self.t
        return {"storage_ratio": f"paper ideal n/k = {n}/{n - self.q} = {n / (n - self.q):.4f}"}


_TOTAL_READ = re.compile(r"^total read\s*:\s*(\d+) bytes", re.M)


class Rebuild(Workload):
    """Encode once (untimed), then in each round delete one node of every
    class (theta seeded) and repair it.  shardio.read_gamma dominates;
    codec does nothing.  This is where the repair bandwidth shows in bytes."""

    name = "rebuild"

    def __init__(self, q: int = 2, t: int = 3, size: int = 256 * 1024):
        self.q, self.t, self.size = q, t, size
        self.init_args = ["init", "--q", str(q), "--t", str(t)]
        self.helper_read: list[tuple[int, int]] = []   # (counted, printed) per traced repair

    def inputs(self) -> dict[str, int]:
        return {"input_bytes": self.size}

    def prepare(self, sess: Session, rng) -> None:
        self.input = sess.work / "input.bin"
        self.input.write_bytes(rng.randbytes(self.size))

    def after_init(self, sess: Session, rng) -> None:
        _, ok = sess.command(["encode", str(self.input), "--out-dir", str(sess.store)])
        if not ok:
            return
        self.storage_ratio = store_bytes(sess.store) / self.size
        self.pristine = {nd: (sess.store / shard_name(nd)).read_bytes()
                         for nd in nodes(self.q, self.t)}
        self.crcs = {nd: sess.manifest()[f"checksum_{nd[0]}_{nd[1]}"]
                     for nd in nodes(self.q, self.t)}

    def round(self, sess: Session, rng, traced: bool) -> Round:
        rnd = Round()
        for i in range(1, self.t + 1):
            node = (i, rng.randrange(self.q))
            path = sess.store / shard_name(node)
            path.unlink()

            def check(child: Child, node=node, path=path) -> str | None:
                rebuilt = path.read_bytes() if path.exists() else b""
                if rebuilt != self.pristine[node]:
                    return "rebuilt shard differs from the deleted one"
                if zlib.crc32(rebuilt) != self.crcs[node]:
                    return "rebuilt shard does not match its manifest CRC"
                printed = _TOTAL_READ.search(child.out)
                if printed is None:
                    return "no 'total read' line in the output"
                if child.spans is not None:
                    counted = sum(sp.read_bytes for sp in child.spans)
                    self.helper_read.append((counted, int(printed.group(1))))
                    if counted != int(printed.group(1)):
                        return f"printed total read {printed.group(1)} != counted {counted}"
                return None

            ok = rnd.add(sess.command(["repair", "--node", f"{i},{node[1]}",
                                       "--out-dir", str(sess.store)],
                                      check=check, traced=traced))
            if not ok:
                path.write_bytes(self.pristine[node])
        return rnd

    def node_user_bytes(self) -> float:
        """User bytes one node holds: file_length / k."""
        return self.size / (self.q * (self.t - 1))

    def metrics(self, rounds):
        user_mib = self.t * self.node_user_bytes() / MiB
        out = {
            "repair_MBps": (median(user_mib / sum(r.walls("repair")) for r in rounds), "MiB/s"),
            "repair_rss_MB": (median(r.rss_MB for r in rounds), "MiB"),
            "storage_ratio": (self.storage_ratio, "ratio"),
        }
        if self.helper_read:
            per_repair = median(counted for counted, _ in self.helper_read)
            out["repair_read_ratio"] = (per_repair / self.node_user_bytes(), "ratio")
        return out

    def references(self):
        n, k = self.q * self.t, self.q * (self.t - 1)
        d, beta, alpha = n - 1, self.q ** (self.t - 1), self.q ** self.t
        refs = {"storage_ratio": f"paper ideal n/k = {n}/{k} = {n / k:.4f}",
                "repair_read_ratio": f"paper ideal d*beta/alpha = {d}*{beta}/{alpha} = "
                                     f"{d * beta / alpha:.4f}"}
        if self.helper_read:
            counted, printed = self.helper_read[0]
            refs["repair_read_ratio"] += (f"; counted {counted} B per repair, "
                                          f"msrcode printed {printed} B")
        return refs


_FAILURES = re.compile(r"(\d+) failures")


class Certify(Workload):
    """Init with the field chosen by the search, then `verify --trials 3`.
    The cost is in parity (gf_rank in the c0 search and the rank checks)
    and in the scalar encode / decode_from_k calls; no shard file I/O."""

    name = "certify"

    def __init__(self, q: int = 4, t: int = 2, trials: int = 3):
        self.trials = trials
        self.init_args = ["init", "--q", str(q), "--t", str(t)]

    def inputs(self) -> dict[str, int]:
        return {"verify_trials": self.trials}

    def round(self, sess: Session, rng, traced: bool) -> Round:
        def check(child: Child) -> str | None:
            found = _FAILURES.search(child.out)
            if found is None or int(found.group(1)) != 0:
                return "verify did not report 0 failures"
            return None

        rnd = Round()
        rnd.add(sess.command(["verify", "--trials", str(self.trials),
                              "--out-dir", str(sess.store)], check=check, traced=traced))
        return rnd

    def metrics(self, rounds):
        return {"verify_s": (median(r.walls("verify")[0] for r in rounds), "s")}


WORKLOADS = {wl.name: wl for wl in (Ingest, Rebuild, Certify)}
