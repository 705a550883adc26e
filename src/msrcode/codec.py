"""Systematic encoding, any-k decoding, and the exhaustive MDS round-trip
verifier.

A stripe of k*alpha message symbols is placed verbatim into the first k
thick columns (node-major, then row-ordinal); the remaining q parity
columns are the unique solution of the parity-check constraints.  Decoding
from any k nodes solves the same kind of system for whichever q columns
are missing.  Both run the one plan ParityCheckSystem.completion_map
compiles for the missing nodes, on a workspace holding the known columns
and then the missing ones.

Scalar functions run the plan on one codeword (a list of ints); the
*_batch variants run it on a block of stripes, numpy uint16 arrays of
(rows, stripes) as shards store them: a message block is (k*alpha, s) and
a node's stack (alpha, s).  Only the batch variants touch numpy.

verify_mds is the whole MDS certificate: it eliminates the thick submatrix
of every size-q node subset once, which is the rank check, and reuses that
plan for the subset's decode round trips.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ._lazy import np
from .params import CodeParams, Node, Row
from .parity import ParityCheckSystem, node_subsets, run_plan, run_plan_batch


@dataclass
class CodewordArray:
    """The alpha x n symbol grid, one thick column per node; addressed by
    (row tuple, node tuple) or directly by ordinals via `symbols`."""

    params: CodeParams
    symbols: list[list[int]]  # [row_ordinal][node_ordinal]

    @classmethod
    def zeros(cls, params: CodeParams) -> "CodewordArray":
        return cls(params, [[0] * params.n for _ in range(params.alpha)])

    def get(self, row: Row, node: Node) -> int:
        return self.symbols[self.params.row_ordinal(row)][self.params.node_ordinal(node)]

    def set(self, row: Row, node: Node, value: int) -> None:
        self.symbols[self.params.row_ordinal(row)][self.params.node_ordinal(node)] = value

    def column(self, node: Node) -> list[int]:
        o = self.params.node_ordinal(node)
        return [r[o] for r in self.symbols]

    def set_column(self, node: Node, values: Sequence[int]) -> None:
        if len(values) != self.params.alpha:
            raise ValueError("column length must be alpha")
        o = self.params.node_ordinal(node)
        for r, v in zip(self.symbols, values):
            r[o] = v


def _require_valid_c0(sys: ParityCheckSystem) -> None:
    if not sys.c0:
        raise ValueError("parity-check system has no valid c0 (run the coefficient search)")


def encode(message: Sequence[int], sys: ParityCheckSystem) -> CodewordArray:
    """Systematic encode of k*alpha symbols into an alpha x n array."""
    p = sys.params
    _require_valid_c0(sys)
    if len(message) != p.message_len:
        raise ValueError(f"message must hold {p.message_len} symbols, got {len(message)}")
    for v in message:
        p.gf.validate(v)
    ws = [*message, *[0] * (p.q * p.alpha)]
    run_plan(sys.completion_map(p.parity_nodes()), ws, p.gf)
    return CodewordArray(p, [ws[r :: p.alpha] for r in range(p.alpha)])


def check_codeword(arr: CodewordArray, sys: ParityCheckSystem) -> bool:
    """True iff every parity-check constraint sums to zero."""
    p = sys.params
    if arr.params != p:
        raise ValueError("codeword array belongs to different parameters")
    gf = p.gf
    grid = arr.symbols
    for con in sys.constraints:
        acc = 0
        for term in con.terms:
            v = grid[p.row_ordinal(term.row)][p.node_ordinal(term.node)]
            if v:
                acc ^= gf.mul(term.coeff, v)
        if acc:
            return False
    return True


def decode_from_k(available: Mapping[Node, Sequence[int]],
                  sys: ParityCheckSystem) -> list[int]:
    """Recover the message from exactly k distinct node columns."""
    p = sys.params
    _require_valid_c0(sys)
    if len(available) != p.k:
        raise ValueError(f"need exactly k={p.k} nodes, got {len(available)}")
    for node, col in available.items():
        p.node_ordinal(node)  # validate node
        if len(col) != p.alpha:
            raise ValueError(f"column of node {node} must hold alpha={p.alpha} symbols")
        for v in col:
            p.gf.validate(v)
    known = [nd for nd in p.nodes() if nd in available]
    missing = [nd for nd in p.nodes() if nd not in available]
    ws = [v for nd in known for v in available[nd]] + [0] * (p.q * p.alpha)
    if any(nd in missing for nd in p.systematic_nodes()):
        run_plan(sys.completion_map(missing), ws, p.gf)
    at = {nd: i * p.alpha for i, nd in enumerate(known + missing)}
    return [v for nd in p.systematic_nodes() for v in ws[at[nd] : at[nd] + p.alpha]]


@dataclass
class MdsReport:
    """Outcome of the exhaustive MDS check: the size-q node subsets whose
    thick submatrix H_S is singular (in check_mds_ranks order), and the
    (k-subset, message index) round trips that failed."""

    subset_count: int
    trials: int
    failures: list[tuple[tuple[Node, ...], int]] = field(default_factory=list)
    deficient: list[tuple[Node, ...]] = field(default_factory=list)

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
    arrays = None
    for subset in subsets:
        missing = tuple(nd for nd in p.nodes() if nd not in subset)
        try:
            sys.completion_map(missing)  # memoised: the calls below reuse it
        except ValueError:  # H_S is singular
            report.deficient.append(missing)
            report.failures.extend((subset, idx) for idx in range(trials))
            continue
        if missing == p.parity_nodes():  # the first subset; its plan encodes
            arrays = [encode(msg, sys) for msg in messages]
        for idx, msg in enumerate(messages):
            if arrays is None or decode_from_k(
                    {nd: arrays[idx].column(nd) for nd in subset}, sys) != msg:
                report.failures.append((subset, idx))
    report.deficient.sort()  # complements of k-subsets come in reverse order
    return report


# -- batched (multi-stripe) paths ---------------------------------------------


def complete_columns_batch(sys: ParityCheckSystem,
                           known: Mapping[Node, np.ndarray],
                           missing: Sequence[Node]) -> dict[Node, np.ndarray]:
    """Batch solve for the missing columns: every value of `known` is an
    (alpha, s) uint16 array of s stripes; returns the same shape per
    missing node."""
    p = sys.params
    missing = sorted(missing, key=p.node_ordinal)
    if set(known) != set(p.nodes()) - set(missing):
        raise ValueError("known columns must be exactly the non-missing nodes")
    blocks = [known[nd] for nd in p.nodes() if nd in known]
    if any(b.shape != (p.alpha, blocks[0].shape[-1]) for b in blocks):
        raise ValueError("known column stacks must all be (alpha, stripes)")
    out = run_plan_batch(sys.completion_map(missing), blocks, len(missing) * p.alpha, p.gf)
    return {nd: out[i * p.alpha : (i + 1) * p.alpha] for i, nd in enumerate(missing)}


def encode_batch(messages: np.ndarray, sys: ParityCheckSystem) -> dict[Node, np.ndarray]:
    """Encode a (k*alpha, s) block of stripes; returns one (alpha, s)
    stack per node (systematic row slices plus solved parity)."""
    p = sys.params
    _require_valid_c0(sys)
    if messages.ndim != 2 or messages.shape[0] != p.message_len:
        raise ValueError(f"messages must be ({p.message_len}, stripes)")
    columns = {node: messages[o * p.alpha : (o + 1) * p.alpha]
               for o, node in enumerate(p.systematic_nodes())}
    columns.update(complete_columns_batch(sys, columns, p.parity_nodes()))
    return columns


def decode_batch(available: Mapping[Node, np.ndarray],
                 sys: ParityCheckSystem) -> np.ndarray:
    """Recover the (k*alpha, s) message block from k (alpha, s) node stacks."""
    p = sys.params
    _require_valid_c0(sys)
    if len(available) != p.k:
        raise ValueError(f"need exactly k={p.k} nodes, got {len(available)}")
    missing = [nd for nd in p.nodes() if nd not in available]
    columns = dict(available)
    if any(nd in missing for nd in p.systematic_nodes()):
        columns.update(complete_columns_batch(sys, available, missing))
    return np.concatenate([columns[nd] for nd in p.systematic_nodes()])
