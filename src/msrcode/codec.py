"""Systematic encoding, any-k decoding, and the exhaustive MDS round-trip
verifier.

A stripe of k*alpha message symbols is placed verbatim into the first k
thick columns (node-major, then row-ordinal); the remaining q parity
columns are the unique solution of the parity-check constraints.  Decoding
from any k nodes solves the same kind of system for whichever q columns
are missing, and repair is the same completion from the d helpers' gamma
rows.  All of them go through complete_columns: it checks the known
columns, and when a wanted column is missing it runs the plan
ParityCheckSystem.completion_map compiles, through parity.run_plan.  A
system exists only for a code with a valid c0 (build_system).

Both paths pass a codeword as {node: column}.  The scalar encode and
decode_from_k work on one stripe, a column being a list of alpha ints;
they serve verify_mds.  The *_batch variants work on a block of stripes,
gf.Blocks of (rows, stripes) bit planes as shards store them: a message
block is (k*alpha, s) and a node's block (alpha, s), and a message
block's systematic nodes are row slices of it, so decoding from the
systematic nodes only stacks their planes.  Neither path loads numpy.

verify_mds is the whole MDS certificate: it eliminates the thick submatrix
of every size-q node subset once, which is the rank check, and reuses that
plan for the subset's decode round trips.  The subsets are independent, so
it encodes its messages once and then deals the k-subsets out to one
os.fork()ed worker per usable CPU (_forked_map), whose exit status says
whether its subsets were clean; the report is the serial loop's.
"""

from __future__ import annotations

import os
import random
from collections.abc import Iterable, Mapping, Sequence

from .gf import Block
from .params import Node, Record
from .parity import ParityCheckSystem, node_subsets, run_plan


def complete_columns(sys: ParityCheckSystem, known: Mapping[Node, Sequence],
                     wanted: Iterable[Node], rows: Sequence[int] | None = None
                     ) -> dict[Node, Sequence]:
    """The columns of the `wanted` nodes, in `wanted` order, of the codeword
    whose `known` nodes send the row ordinals `rows` (ascending; None: all
    alpha), as lists of ints on one stripe or Blocks on a block.  Raises
    ValueError unless `known` is nodes of the code whose rows determine the
    rest (q*len(rows) = alpha per missing node), each column len(rows) field
    symbols: ints on one stripe, or Blocks over the field of (len(rows),
    stripes) with one stripe count, each plane a bit string of that many
    stripes.  The plan runs only when a wanted column is missing."""
    p = sys.params
    sent = p.alpha if rows is None else len(rows)
    missing = [nd for nd in p.nodes() if nd not in known]
    if not known or len(known) + len(missing) != p.n or len(missing) * p.alpha != p.q * sent:
        raise ValueError(f"known columns must be nodes of the code that leave "
                         f"{p.q * sent // p.alpha} missing")
    columns, gf = [known[nd] for nd in p.nodes() if nd in known], p.gf
    if isinstance(columns[0], list):
        if any(len(col) != sent for col in columns):
            raise ValueError(f"columns must hold {sent} symbols each")
        if any(col and (min(col) < 0 or max(col) >= gf.order) for col in columns):
            for col in columns:  # only to name the first bad symbol
                for v in col:
                    gf.validate(v)
    else:
        stripes = columns[0].stripes
        for col in columns:
            if col.m != gf.m:
                raise ValueError(f"a block of {col.m}-bit symbols: not an element of GF(2^{gf.m})")
            if col.stripes != stripes or len(col.planes) != sent * gf.m:
                raise ValueError(f"column blocks must all be ({sent}, stripes)")
            if any(plane < 0 or plane.bit_length() > stripes for plane in col.planes):
                raise ValueError(f"a plane has bits outside its {stripes} stripes: "
                                 f"not an element of GF(2^{gf.m})")
    wanted = list(wanted)
    solved = {}
    if any(nd in missing for nd in wanted):
        out = run_plan(sys.completion_map(missing, rows), columns,
                       len(missing) * p.alpha, gf)
        solved = {nd: out[i * p.alpha : (i + 1) * p.alpha] for i, nd in enumerate(missing)}
    return {nd: solved[nd] if nd in solved else known[nd] for nd in wanted}


def encode(message: Sequence[int], sys: ParityCheckSystem) -> dict[Node, list[int]]:
    """Systematic encode of one stripe of k*alpha symbols; returns each
    node's column of alpha symbols in row-ordinal order."""
    p = sys.params
    if len(message) != p.message_len:
        raise ValueError(f"message must hold {p.message_len} symbols, got {len(message)}")
    return complete_columns(sys, {nd: list(message[o * p.alpha : (o + 1) * p.alpha])
                                  for o, nd in enumerate(p.systematic_nodes())}, p.nodes())


def decode_from_k(available: Mapping[Node, Sequence[int]],
                  sys: ParityCheckSystem) -> list[int]:
    """Recover the message from exactly k distinct node columns."""
    p = sys.params
    columns = complete_columns(sys, {nd: list(col) for nd, col in available.items()},
                               p.systematic_nodes())
    return [v for col in columns.values() for v in col]


class MdsReport(Record):
    """Outcome of the exhaustive MDS check: the size-q node subsets whose
    thick submatrix H_S is singular (in check_mds_ranks order), and the
    (k-subset, message index) round trips that failed."""

    __slots__ = ("subset_count", "trials", "failures", "deficient")

    def __init__(self, subset_count: int, trials: int, failures: list | None = None,
                 deficient: list | None = None):
        self.subset_count, self.trials = subset_count, trials
        self.failures = [] if failures is None else failures
        self.deficient = [] if deficient is None else deficient

    @property
    def ok(self) -> bool:
        return not self.failures and not self.deficient


def verify_mds(sys: ParityCheckSystem, trials: int) -> MdsReport:
    """The MDS certificate and its round trips, with one elimination per
    subset.  For every k-subset of nodes, the thick submatrix H_S of the q
    nodes left out is eliminated once: a singular one is recorded in
    `deficient` (so `deficient == check_mds_ranks(sys)`, for any number of
    trials), and otherwise its plan decodes each of `trials` random
    messages from the k-subset.  A mismatch, or a round trip through a
    singular H_S, is recorded as a failure.  The messages are encoded once,
    up front, and the k-subsets are shared among forked workers
    (_forked_map); the report is the same for any number of them.  The
    subsets of a worker that finds something, raises or dies are checked
    again here: every subset is checked by a process that finished
    cleanly."""
    p = sys.params
    rng = random.Random(0)
    subsets = list(node_subsets(p, p.k))
    messages = [
        [rng.randrange(p.gf.order) for _ in range(p.message_len)]
        for _ in range(trials)
    ]
    try:  # compiles the plan of the first subset, which leaves out the parity nodes
        codewords = [encode(msg, sys) for msg in messages]
    except ValueError:  # that H_S is singular: nothing encodes
        codewords = None

    def failed_trials(subset: tuple[Node, ...]) -> list[int] | None:
        """None when the H_S of the nodes outside `subset` is singular, else
        the indices of the messages that do not decode from `subset`."""
        missing = tuple(nd for nd in p.nodes() if nd not in subset)
        try:
            sys.completion_map(missing)  # memoised: the decodes below reuse it
        except ValueError:  # H_S is singular
            return None
        return [idx for idx, msg in enumerate(messages) if codewords is None or decode_from_k(
            {nd: codewords[idx][nd] for nd in subset}, sys) != msg]

    report = MdsReport(subset_count=len(subsets), trials=trials)
    for subset, failed in zip(subsets, _forked_map(failed_trials, subsets)):
        if failed is None:
            report.deficient.append(tuple(nd for nd in p.nodes() if nd not in subset))
            failed = range(trials)
        report.failures.extend((subset, idx) for idx in failed)
    report.deficient.sort()  # complements of k-subsets come in reverse order
    return report


# -- verify's workers -----------------------------------------------------------

# The fewest k-subsets worth a worker of their own.  A fork and exit take
# about 2.3 ms, and a subset 0.3 ms at (2,2) to 1.1 ms at (4,2,6) with 3
# trials, so 16 subsets outweigh a fork twice over even at the cheapest.
# (2,2)'s 6 and (2,3)'s 15 subsets stay in-process.
_MIN_SUBSETS_PER_WORKER = 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _forked_map(fn, items: list) -> list:
    """[fn(x) for x in items], for an fn that returns [] on a clean x,
    shared among W workers: items[w::W] go to worker w, this process being
    worker 0 and the others os.fork()ed children.  W is the usable CPU
    count, capped at one worker per _MIN_SUBSETS_PER_WORKER items.  A
    child's exit status says only whether its slice was clean; the slice
    of a child that was not, or that raised, died or could not be forked,
    runs again here.  On any exception here, KeyboardInterrupt included,
    every child not yet reaped is killed and reaped.  Forking is safe
    because msrcode starts no thread."""
    workers = min(_usable_cpus(), len(items) // _MIN_SUBSETS_PER_WORKER)
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    results = [[] for _ in items]
    redo, children = [], {}  # the slices to run again here; pid -> its child's slice
    try:
        for w in range(1, workers):
            try:
                pid = os.fork()
            except OSError:  # no process to spare (EAGAIN)
                redo.append(w)
                continue
            if pid == 0:  # os._exit on every path: the child never unwinds into its callers
                try:
                    os._exit(0 if all(fn(x) == [] for x in items[w::workers]) else 1)
                finally:  # fn raised
                    os._exit(1)
            children[pid] = w
        results[::workers] = [fn(x) for x in items[::workers]]
        for pid, w in list(children.items()):
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                redo.append(w)
        for w in redo:
            results[w::workers] = [fn(x) for x in items[w::workers]]
    except BaseException:
        from signal import SIGKILL  # 1.6 ms of enum set-up: not on every command's import
        for pid in children:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        raise
    return results


# -- batched (multi-stripe) paths ---------------------------------------------


def encode_batch(messages: Block, sys: ParityCheckSystem) -> dict[Node, Block]:
    """Encode a (k*alpha, s) block of stripes; returns one (alpha, s)
    block per node (systematic row slices plus solved parity)."""
    p = sys.params
    if messages.rows != p.message_len:
        raise ValueError(f"messages must be ({p.message_len}, stripes)")
    return complete_columns(sys, {nd: messages[o * p.alpha : (o + 1) * p.alpha]
                                  for o, nd in enumerate(p.systematic_nodes())}, p.nodes())


def decode_batch(available: Mapping[Node, Block], sys: ParityCheckSystem) -> Block:
    """Recover the (k*alpha, s) message block from k (alpha, s) node
    blocks: the systematic ones, known or solved, stacked in node order."""
    p = sys.params
    return Block.stack(complete_columns(sys, available, p.systematic_nodes()).values())
