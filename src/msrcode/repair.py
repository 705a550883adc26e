"""Help-by-transfer exact repair of a single failed node from all d = n-1
survivors.

Each helper ships, verbatim, its beta = q^(t-1) symbols on the gamma rows,
whose coordinate i0 equals theta0 (the failed node's class coordinate
pinned to its theta).  CodeParams.gamma_runs is their one definition, as
runs of consecutive row ordinals: the plan's helper slots and the shard
reads both follow it, so they agree by construction.  Repair is any-k
decode's completion from fewer rows (codec.complete_columns): the failed
thick column is solved from the q*beta constraints anchored on the gamma
rows.  Two phases make those constraints triangular in the failed column:

  1. every row-parity anchored on a gamma row has exactly one unknown, the
     failed node's symbol on that row;
  2. every delta-parity anchored there then has exactly one unknown left,
     the failed node's symbol on the row shifted by delta in coordinate i0.

The q-1 shifts of each gamma row cover the other alpha - beta symbols
exactly once, so d*beta downloaded symbols rebuild the column -- the
minimum-storage optimum beta = alpha/(d-k+1), against k*alpha for a naive
any-k decode (CodeParams' d, beta and message_len).  Compiling the plan
checks that those constraints read only sent symbols and determine the
column.

repair_batch, the one repair entry point, runs it on a block: each
helper's (beta, s) Block in, as ShardReader.blocks(gamma_runs) reads it,
the failed node's (alpha, s) Block out.
"""

from __future__ import annotations

from typing import Mapping

from .codec import complete_columns
from .gf import Block
from .params import Node
from .parity import ParityCheckSystem


def repair_batch(failed: Node, gamma_columns: Mapping[Node, Block],
                 sys: ParityCheckSystem) -> Block:
    """Rebuild the failed node on a block of s stripes: `gamma_columns` maps
    each of the d helpers to a (beta, s) Block of its stored helper-row
    symbols (the rows of gamma_runs, in order), sent as-is; returns the
    failed node's (alpha, s) Block.  Raises ValueError unless the helpers
    are exactly the d other nodes, each with a (beta, s) Block over the
    code's field.  The helper-set check is the one that refuses the failed
    node's own rows in place of a helper's."""
    p = sys.params
    if set(gamma_columns) != {nd for nd in p.nodes() if nd != failed}:
        raise ValueError(f"need the {p.d} helpers other than {failed}")
    rows = [start + g for start, length in p.gamma_runs(failed) for g in range(length)]
    return complete_columns(sys, gamma_columns, [failed], rows)[failed]
