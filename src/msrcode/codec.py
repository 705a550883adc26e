"""Systematic encoding, any-k decoding, and the exhaustive MDS round-trip
verifier.

A stripe of k*alpha message symbols is placed verbatim into the first k
thick columns (node-major, then row-ordinal); the remaining q parity
columns are the unique solution of the parity-check constraints.  Decoding
from any k nodes solves the same kind of system for whichever q columns
are missing.  All four entry points go through one column completion,
complete_columns: it checks the known columns, and when a wanted column is
missing it runs the plan ParityCheckSystem.completion_map compiles for the
missing nodes, through parity.run_plan.

Both paths pass a codeword as {node: column}.  The scalar encode and
decode_from_k work on one stripe, a column being a list of alpha ints;
they serve verify_mds.  The *_batch variants work on a block of stripes,
gf.Blocks of (rows, stripes) bit planes as shards store them: a message
block is (k*alpha, s) and a node's block (alpha, s), and a message
block's systematic nodes are row slices of it, so decoding from the
systematic nodes only stacks their planes.  Neither path loads numpy.

verify_mds is the whole MDS certificate: it eliminates the thick submatrix
of every size-q node subset once, which is the rank check, and reuses that
plan for the subset's decode round trips.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from .gf import Block
from .params import Node, Record
from .parity import ParityCheckSystem, check_columns, node_subsets, run_plan


def _require_valid_c0(sys: ParityCheckSystem) -> None:
    if not sys.c0:
        raise ValueError("parity-check system has no valid c0 (run the coefficient search)")


def complete_columns(sys: ParityCheckSystem, known: Mapping[Node, Sequence],
                     wanted: Iterable[Node]) -> dict[Node, Sequence]:
    """The columns of the `wanted` nodes of the codeword with the k `known`
    columns, in `wanted` order: lists of alpha ints on one stripe, or
    (alpha, s) Blocks on a block of s stripes.  Raises ValueError
    unless `known` is k nodes of the code, each column alpha field
    symbols.  The plan runs only when a wanted column is missing."""
    p = sys.params
    missing = [nd for nd in p.nodes() if nd not in known]
    if len(known) != p.k or len(missing) != p.q:
        raise ValueError(f"known columns must be k={p.k} nodes of the code")
    columns = [known[nd] for nd in p.nodes() if nd in known]
    check_columns(columns, p.alpha, p.gf)
    wanted = list(wanted)
    solved = {}
    if any(nd in missing for nd in wanted):
        out = run_plan(sys.completion_map(missing), columns, p.q * p.alpha, p.gf)
        solved = {nd: out[i * p.alpha : (i + 1) * p.alpha] for i, nd in enumerate(missing)}
    return {nd: solved[nd] if nd in solved else known[nd] for nd in wanted}


def encode(message: Sequence[int], sys: ParityCheckSystem) -> dict[Node, list[int]]:
    """Systematic encode of one stripe of k*alpha symbols; returns each
    node's column of alpha symbols in row-ordinal order."""
    p = sys.params
    _require_valid_c0(sys)
    if len(message) != p.message_len:
        raise ValueError(f"message must hold {p.message_len} symbols, got {len(message)}")
    return complete_columns(sys, {nd: list(message[o * p.alpha : (o + 1) * p.alpha])
                                  for o, nd in enumerate(p.systematic_nodes())}, p.nodes())


def decode_from_k(available: Mapping[Node, Sequence[int]],
                  sys: ParityCheckSystem) -> list[int]:
    """Recover the message from exactly k distinct node columns."""
    p = sys.params
    _require_valid_c0(sys)
    if len(available) != p.k:
        raise ValueError(f"need exactly k={p.k} nodes, got {len(available)}")
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


def verify_mds(sys: ParityCheckSystem, trials: int, seed: int = 0) -> MdsReport:
    """The MDS certificate and its round trips, with one elimination per
    subset.  For every k-subset of nodes, the thick submatrix H_S of the q
    nodes left out is eliminated once: a singular one is recorded in
    `deficient` (so `deficient == check_mds_ranks(sys)`, for any number of
    trials), and otherwise its plan decodes each of `trials` random
    messages from the k-subset.  A mismatch, or a round trip through a
    singular H_S, is recorded as a failure."""
    p = sys.params
    rng = random.Random(seed)
    subsets = list(node_subsets(p, p.k))
    report = MdsReport(subset_count=len(subsets), trials=trials)
    messages = [
        [rng.randrange(p.gf.order) for _ in range(p.message_len)]
        for _ in range(trials)
    ]
    codewords = None
    for subset in subsets:
        missing = tuple(nd for nd in p.nodes() if nd not in subset)
        try:
            sys.completion_map(missing)  # memoised: the calls below reuse it
        except ValueError:  # H_S is singular
            report.deficient.append(missing)
            report.failures.extend((subset, idx) for idx in range(trials))
            continue
        if missing == p.parity_nodes():  # the first subset; its plan encodes
            codewords = [encode(msg, sys) for msg in messages]
        for idx, msg in enumerate(messages):
            if codewords is None or decode_from_k(
                    {nd: codewords[idx][nd] for nd in subset}, sys) != msg:
                report.failures.append((subset, idx))
    report.deficient.sort()  # complements of k-subsets come in reverse order
    return report


# -- batched (multi-stripe) paths ---------------------------------------------


def encode_batch(messages: Block, sys: ParityCheckSystem) -> dict[Node, Block]:
    """Encode a (k*alpha, s) block of stripes; returns one (alpha, s)
    block per node (systematic row slices plus solved parity)."""
    p = sys.params
    _require_valid_c0(sys)
    if messages.rows != p.message_len:
        raise ValueError(f"messages must be ({p.message_len}, stripes)")
    return complete_columns(sys, {nd: messages[o * p.alpha : (o + 1) * p.alpha]
                                  for o, nd in enumerate(p.systematic_nodes())}, p.nodes())


def decode_batch(available: Mapping[Node, Block], sys: ParityCheckSystem) -> Block:
    """Recover the (k*alpha, s) message block from k (alpha, s) node
    blocks: the systematic ones, known or solved, stacked in node order."""
    p = sys.params
    _require_valid_c0(sys)
    if len(available) != p.k:
        raise ValueError(f"need exactly k={p.k} nodes, got {len(available)}")
    return Block.stack(complete_columns(sys, available, p.systematic_nodes()).values())
