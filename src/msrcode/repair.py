"""Help-by-transfer exact repair of a single failed node from all d = n-1
survivors.

Each helper ships, verbatim, its beta = q^(t-1) symbols on the rows whose
coordinate i0 equals theta0 (the failed node's class coordinate pinned to
its theta).  Repair then runs in two mandatory phases:

  1. every row-parity anchored on such a row has exactly one unknown, the
     failed node's symbol on that row;
  2. every delta-parity anchored there then has exactly one unknown left,
     the failed node's symbol on the row shifted by delta in coordinate i0.

The q-1 shifts of each of the q^(t-1) anchor rows cover the remaining
alpha - beta symbols exactly once, so the failed column is rebuilt in full
from d*beta downloaded symbols -- the minimum-storage optimum
beta = alpha/(d-k+1).

repair_plan checks both phases once, against the constraints themselves,
and compiles them into one Plan.  repair_batch, the one repair entry point,
runs it through parity.run_plan, the runner the codec uses, on a block of
stripes: each helper's (beta, s) stack of stored rows, as
ShardReader.gamma_blocks reads them, in; the failed node's (alpha, s)
stack out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ._lazy import np
from .params import CodeParams, Node, Row
from .parity import ParityCheckSystem, Plan, check_columns, run_plan


@dataclass(frozen=True)
class BandwidthReport:
    """Repair traffic for one parameter set versus naive full decode."""

    per_helper: int     # beta
    helpers: int        # d
    total: int          # d * beta
    naive: int          # B = k * alpha, the any-k download
    ratio: float        # total / naive


def repair_plan(failed: Node, sys: ParityCheckSystem) -> Plan:
    """Compile the two repair phases for `failed` into a plan on a workspace
    of d*beta + alpha slots: slot h*beta + g holds the g-th helper-row
    symbol of the h-th helper (helpers in node order), and the last alpha
    slots, zero on entry, receive the failed column in row-ordinal order.

    Raises ValueError unless each constraint used is down to exactly one
    unknown, the symbol the phase predicts.  The alpha solved symbols are
    then distinct, so they cover every row exactly once.  The plan for the
    last failed node is memoised on `sys`, so a repair compiles it once.
    """
    return sys.last_plan("repair", failed, lambda: _compile_repair_plan(failed, sys))


def _compile_repair_plan(failed: Node, sys: ParityCheckSystem) -> Plan:
    p = sys.params
    if not sys.c0:
        raise ValueError("parity-check system has no valid c0")
    gamma = p.gamma_rows(failed)
    helpers = [nd for nd in p.nodes() if nd != failed]
    slot = {(row, h): i * p.beta + g
            for i, h in enumerate(helpers) for g, row in enumerate(gamma)}
    plan: Plan = []

    def solve(delta: int, anchor: Row, row: Row) -> None:
        con = sys.constraint(delta, anchor)
        unknown = [term for term in con.terms if (term.row, term.node) not in slot]
        if [(term.row, term.node) for term in unknown] != [(row, failed)]:
            raise ValueError(f"constraint (delta={delta}, anchor={anchor}) does not "
                             f"leave exactly the one unknown {(row, failed)}")
        dst = p.d * p.beta + p.row_ordinal(row)
        plan.extend((dst, term.coeff, slot[(term.row, term.node)])
                    for term in con.terms if term is not unknown[0])
        inv = p.gf.inv(unknown[0].coeff)
        if inv != 1:
            plan.append((dst, inv, dst))
        slot[(row, failed)] = dst

    i0, theta0 = failed
    for row in gamma:  # phase 1: row-parities on the helper rows
        solve(0, row, row)
    for row in gamma:  # phase 2: delta-parities anchored there
        for delta in range(1, p.q):
            solve(delta, row, row[: i0 - 1] + ((theta0 - delta) % p.q,) + row[i0:])
    return plan


def repair_batch(failed: Node, gamma_columns: Mapping[Node, np.ndarray],
                 sys: ParityCheckSystem) -> np.ndarray:
    """Rebuild the failed node on a block of s stripes: `gamma_columns` maps
    each of the d helpers to a (beta, s) uint16 array of its stored
    helper-row symbols (ascending row ordinal), sent as-is; returns the
    failed node's (alpha, s) stack.  Raises ValueError unless the helpers
    are exactly the d other nodes, each with a (beta, s) stack of field
    symbols."""
    p = sys.params
    plan = repair_plan(failed, sys)
    helpers = [nd for nd in p.nodes() if nd != failed]
    if set(gamma_columns) != set(helpers):
        raise ValueError(f"need the {p.d} helpers other than {failed}")
    blocks = [gamma_columns[h] for h in helpers]
    check_columns(blocks, p.beta, p.gf)
    return run_plan(plan, blocks, p.alpha, p.gf)


def bandwidth_report(params: CodeParams) -> BandwidthReport:
    """Repair bandwidth versus the naive any-k download, in symbols."""
    total = params.d * params.beta
    naive = params.message_len
    return BandwidthReport(
        per_helper=params.beta,
        helpers=params.d,
        total=total,
        naive=naive,
        ratio=total / naive,
    )
