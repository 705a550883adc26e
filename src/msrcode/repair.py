"""Help-by-transfer exact repair of a single failed node from all d = n-1
survivors.

Each helper ships, verbatim, its beta = q^(t-1) symbols on the gamma rows,
whose coordinate i0 equals theta0 (the failed node's class coordinate
pinned to its theta).  CodeParams.gamma_runs is their one definition, as
runs of consecutive row ordinals: the plan's helper slots and the shard
reads both follow it, so they agree by construction.  Repair is a
completion: the failed thick column is solved from the q*beta constraints
anchored on the gamma rows, by the syndrome-plus-elimination any-k decode
runs.  Two phases make those
constraints triangular in the failed column:

  1. every row-parity anchored on a gamma row has exactly one unknown, the
     failed node's symbol on that row;
  2. every delta-parity anchored there then has exactly one unknown left,
     the failed node's symbol on the row shifted by delta in coordinate i0.

The q-1 shifts of each gamma row cover the other alpha - beta symbols
exactly once, so d*beta downloaded symbols rebuild the column -- the
minimum-storage optimum beta = alpha/(d-k+1), against k*alpha for a naive
any-k decode (CodeParams' d, beta and message_len).

repair_plan compiles that completion once into a list of ops
(ParityCheckSystem.compile_plan checks that it reads only sent symbols);
repair_batch, the one repair entry point, runs it through parity.run_plan
on a block, each op as plane XORs: each helper's (beta, s) Block in, as
ShardReader.blocks(gamma_runs) reads it, the failed node's (alpha, s) Block
out.
"""

from __future__ import annotations

from typing import Mapping

from .gf import Block
from .params import Node
from .parity import Op, ParityCheckSystem, check_columns, run_plan


def repair_plan(failed: Node, sys: ParityCheckSystem) -> list[Op]:
    """The completion of the failed thick column over the q*beta
    constraints anchored on its gamma rows, on a workspace of
    d*beta + alpha slots: slot h*beta + g holds the g-th gamma-row symbol
    of the h-th helper (rows in gamma_runs order, helpers in node order),
    and the last alpha slots, zero on entry, receive the failed column in
    row-ordinal order.
    Raises ValueError if they read an unsent symbol or do not determine
    the failed column.  Memoised on `sys` for the last failed node, so a
    repair compiles it once."""
    return sys.last_plan("repair", failed, lambda: _repair_plan(failed, sys))


def _repair_plan(failed: Node, sys: ParityCheckSystem) -> list[Op]:
    p = sys.params
    gamma = [start + g for start, length in p.gamma_runs(failed) for g in range(length)]
    helpers = [p.node_ordinal(nd) for nd in p.nodes() if nd != failed]
    slot_of = {h * p.alpha + row: i * p.beta + g
               for i, h in enumerate(helpers) for g, row in enumerate(gamma)}
    anchored = [delta * p.alpha + row for delta in range(p.q) for row in gamma]
    return sys.compile_plan((failed,), anchored, slot_of)


def repair_batch(failed: Node, gamma_columns: Mapping[Node, Block],
                 sys: ParityCheckSystem) -> Block:
    """Rebuild the failed node on a block of s stripes: `gamma_columns` maps
    each of the d helpers to a (beta, s) Block of its stored helper-row
    symbols (the rows of gamma_runs, in order), sent as-is; returns the
    failed node's (alpha, s) Block.  Raises ValueError unless the helpers
    are exactly the d other nodes, each with a (beta, s) Block over the
    code's field."""
    p = sys.params
    plan = repair_plan(failed, sys)
    helpers = [nd for nd in p.nodes() if nd != failed]
    if set(gamma_columns) != set(helpers):
        raise ValueError(f"need the {p.d} helpers other than {failed}")
    blocks = [gamma_columns[h] for h in helpers]
    check_columns(blocks, p.beta, p.gf)
    return run_plan(plan, blocks, p.alpha, p.gf)
