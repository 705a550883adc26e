"""The structured parity-check system H = J0 + c0*E, GF linear algebra,
straight-line solve plans, and the exhaustive search for an MDS-realizing
coefficient c0.

The code on an alpha x n array is cut out by q^(t+1) linear constraints,
one per (delta, anchor-row) pair:

  delta = 0   row-parity: the n symbols of the anchor row, weighted by row
              `0` of a q x n Vandermonde matrix (all ones).
  delta != 0  delta-parity: the same n in-row symbols weighted by row
              `delta` of the Vandermonde matrix, plus t "shifted" symbols
              C(..., x_j - delta, ...; (j, x_j)), one per class, all
              weighted by the single scalar c0.

Flattened node-by-node this is exactly J0 + c0*E with J0 the Kronecker
product of the Vandermonde matrix with an alpha x alpha identity.  The MDS
property is equivalent to every q-thick-column submatrix H_S = J0_S + c0*E_S
having full rank q^(t+1); check_mds_ranks checks that on H_S itself.
find_c0 scans nonzero candidates in ascending order, drops each at its
first rank-deficient subset and returns the first that passes all.  It
checks each subset on the strongly connected blocks of I + c*M_S, which is
nonsingular exactly when H_S is (module btf): each subset's blocks are
built once, and each (subset, c) is one rank check of their
block-diagonal I + c*M_S.

H is held in one form: constraint delta*alpha + r, anchored on row ordinal
r, is a tuple of (node ordinal, row ordinal, coeff) triples.  thick_rows
reads any thick submatrix off a sorted copy, as sparse {column: coeff}
rows; no dense matrix is formed.

Every solve is compiled once by compile_plan into a plan, a straight-line
list of GF ops (dst, coeff, src) on a workspace of symbol slots: it solves
missing thick columns from chosen constraints, as the syndrome of the
known symbols then the recorded sparse elimination (inverse_for), and
refuses a constraint that reads a symbol neither missing nor known.
completion_map is that for q erased nodes over every constraint;
repair.repair_plan that for one failed node over its gamma-anchored ones.
run_plan, the one runner, executes a plan's ops on one stripe of ints, or
on a (rows, stripes) gf.Block of bit planes, each op as plane XORs
through the bit matrix of its coefficient (GF2M.bit_pairs).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .gf import GF2M, Block, ring_sub
from .params import CodeParams, Node, make_params, smallest_field_degree

# Exhaustive-check ceiling: refuse (rather than silently sample) when the
# number of size-q node subsets exceeds this.
MAX_SUBSET_CHECKS = 10**6


class ParityCheckSystem:
    """All q^(t+1) constraints of one code instance and the Vandermonde
    coefficient matrix.  `terms` holds each constraint's triples in term
    order (the n in-row terms in node order, then for delta != 0 the t
    shifted terms in class order), which the syndrome of a plan reads; a
    sorted copy, the column order of H, gives thick_rows.  Immutable once
    built (the memoised last plan of each kind is confined to
    single-threaded use)."""

    def __init__(self, params: CodeParams, hmds: list[list[int]], c0: int,
                 terms: Iterable[Iterable[tuple[int, int, int]]]):
        self.params = params
        self.hmds = hmds
        self.c0 = c0
        self.terms = tuple(map(tuple, terms))
        self._sorted_terms = [sorted(terms) for terms in self.terms]
        # support disjointness: no two terms of one constraint on one symbol
        # (in-row and shifted entries differ in row, classes differ in node)
        if any(len({(node, row) for node, row, _ in terms}) != len(terms)
               for terms in self._sorted_terms):
            raise ValueError("J0/E supports must not collide")
        self._last_plans: dict[str, tuple[object, list[Op]]] = {}  # kind -> (key, plan)

    @property
    def n_constraints(self) -> int:
        return len(self.terms)

    def thick_rows(self, nodes: Iterable[Node]) -> list[SparseRow]:
        """The rows of the thick submatrix over `nodes`, sparse: one
        {column: coeff} dict per constraint, columns ascending.  The columns
        are the symbols of `nodes`, node-major in ascending node-ordinal
        order, alpha row-ordinal columns per node: over all nodes, the
        columns of H = J0 + c0*E."""
        p = self.params
        chosen = sorted({p.node_ordinal(nd) for nd in nodes})
        if not chosen:
            raise ValueError("empty node set")
        base = {node: i * p.alpha for i, node in enumerate(chosen)}
        return [{base[node] + row: coeff for node, row, coeff in terms if node in base}
                for terms in self._sorted_terms]

    def inverse_for(self, missing: Iterable[Node], constraints: Sequence[int]) -> Elimination:
        """Recorded elimination of the thick submatrix over `missing` on the
        rows of `constraints`; raises ValueError unless it is square and
        nonsingular."""
        p = self.params
        key = sorted(set(missing), key=p.node_ordinal)
        all_rows = self.thick_rows(key)
        rows = [all_rows[c] for c in constraints]
        if len(rows) != len(key) * p.alpha:
            raise ValueError(f"{len(rows)} constraints cannot solve "
                             f"{len(key) * p.alpha} unknowns")
        return _eliminate(rows, p.gf)

    def last_plan(self, kind: str, key, compile_: Callable[[], list[Op]]) -> list[Op]:
        """The plan compile_() returns, memoised for the last key of each
        kind of plan, since a command runs one plan on every block."""
        last = self._last_plans.get(kind)
        if last is None or last[0] != key:
            last = self._last_plans[kind] = (key, compile_())
        return last[1]

    def compile_plan(self, missing: Sequence[Node], constraints: Sequence[int],
                     slot_of: Mapping[int, int]) -> list[Op]:
        """The plan that solves the `missing` thick columns from `constraints`.
        `slot_of` maps each known symbol, by its column node*alpha + row of
        H, to its input slot, 0..len(slot_of)-1; the missing columns follow,
        node-major in node order, alpha row-ordinal slots each.  Raises
        ValueError if a constraint reads a symbol neither missing nor known,
        or unless the system is square and nonsingular."""
        p = self.params
        elim = self.inverse_for(missing, constraints)
        lost = {p.node_ordinal(nd) for nd in missing}
        out, alpha, slot = len(slot_of), p.alpha, slot_of.get
        plan = []
        for r, c in enumerate(constraints):
            dst = out + elim.slot_of_row[r]
            for node, row, coeff in self.terms[c]:
                src = slot(node * alpha + row)
                if src is not None:
                    plan.append((dst, coeff, src))
                elif node not in lost:
                    raise ValueError(f"constraint {c} reads node {p.node_at(node)}'s symbol on "
                                     f"row {p.row_at(row)}, which is neither missing nor sent")
        plan += [(out + dst, coeff, out + src) for dst, coeff, src in elim.plan]
        return plan

    def completion_map(self, missing: Iterable[Node]) -> list[Op]:
        """compile_plan for the q `missing` nodes over every constraint, on
        a workspace of n*alpha slots: the known columns, then the missing
        ones, in node order.  Only the last plan is memoised."""
        key = tuple(sorted(set(missing), key=self.params.node_ordinal))
        return self.last_plan("completion", key, lambda: self._completion_plan(key))

    def _completion_plan(self, key: tuple[Node, ...]) -> list[Op]:
        p = self.params
        known = [p.node_ordinal(nd) for nd in p.nodes() if nd not in key]
        slot_of = {o * p.alpha + row: i * p.alpha + row
                   for i, o in enumerate(known) for row in range(p.alpha)}
        return self.compile_plan(key, range(self.n_constraints), slot_of)


def build_hmds(params: CodeParams) -> list[list[int]]:
    """The q x n Vandermonde coefficient matrix: entry (r, j) is a_j^r with
    a_j the (j+1)-th power of the field generator.  Row 0 is all ones; the
    a_j are distinct and nonzero, so any q columns are independent (the
    parity-check of an [n, k] MDS code)."""
    gf = params.gf
    span = gf.order - 1
    return [
        [gf.exp(((j + 1) * r) % span) for j in range(params.n)]
        for r in range(params.q)
    ]


def build_system(params: CodeParams, c0: int) -> ParityCheckSystem:
    """Assemble all constraints for the given shifted-entry coefficient.

    c0 = 0 is permitted only for diagnostics (it yields exactly the
    Kronecker block matrix without the shifted entries); encoders reject it.
    """
    q, t = params.q, params.t
    params.gf.validate(c0)
    hmds = build_hmds(params)
    terms = []
    for delta in range(q):
        coeff_row = hmds[delta]
        for r, anchor in enumerate(params.rows()):
            con = [(node, r, coeff_row[node]) for node in range(params.n)]
            if delta != 0 and c0 != 0:
                # class j's shifted term: node (j, x_j) on the anchor row
                # with x_j replaced by x_j - delta (mod q)
                for j, xj in enumerate(anchor, start=1):
                    shift = (ring_sub(xj, delta, q) - xj) * q ** (t - j)
                    con.append((params.node_ordinal((j, xj)), r + shift, c0))
            terms.append(con)
    return ParityCheckSystem(params, hmds, c0, terms)


# -- solve plans and GF linear algebra ----------------------------------------

# One plan step on workspace W: W[dst] ^= coeff*W[src], or, when dst == src,
# W[dst] = coeff*W[dst].
Op = tuple[int, int, int]


def run_plan(plan: list[Op], columns: Sequence, n_out: int,
             gf: GF2M) -> list[int] | Block:
    """Run `plan` on a workspace whose slots are the rows of `columns`, in
    order, then n_out output rows, zero on entry, and return the output
    rows.  Every op writes an output slot; the inputs are never written.
    On one stripe the columns are lists of ints, the workspace is a list of
    ints, the ops use gf.mul and the output comes back as a new list.  On a
    block the columns are Blocks of one stripe count, a slot is a list of
    its row's m planes, and an op (dst, c, src) XORs plane i of slot src
    into plane r of slot dst for each pair (r, i) of gf.bit_pairs(c); an
    in-place scale (dst == src) sets the slot's planes aside and XORs them
    into a zero slot.  The output is a new (n_out, stripes) Block."""
    if isinstance(columns[0], list):
        ws = [v for col in columns for v in col] + [0] * n_out
        mul = gf.mul
        for dst, coeff, src in plan:
            if dst == src:
                ws[dst] = mul(coeff, ws[dst])
            elif coeff == 1:
                ws[dst] ^= ws[src]
            else:
                ws[dst] ^= mul(coeff, ws[src])
        return ws[len(ws) - n_out :]
    m, bit_pairs = gf.m, gf.bit_pairs
    ws = [col.planes[at : at + m] for col in columns for at in range(0, len(col.planes), m)]
    ws += [[0] * m for _ in range(n_out)]
    for dst, coeff, src in plan:
        old = ws[src]
        if dst == src:
            ws[dst] = [0] * m
        new = ws[dst]
        for r, i in bit_pairs(coeff):
            new[r] ^= old[i]
    return Block(m, columns[0].stripes, [plane for slot in ws[len(ws) - n_out :] for plane in slot])


def check_columns(columns: Sequence, rows: int, gf: GF2M) -> None:
    """Refuse plan inputs that are not `rows` field symbols each: lists of
    ints on one stripe, or Blocks over gf of (rows, stripes) with one
    stripe count, each plane a bit string of that many stripes."""
    if isinstance(columns[0], list):
        if any(len(col) != rows for col in columns):
            raise ValueError(f"columns must hold {rows} symbols each")
        for col in columns:
            for v in col:
                gf.validate(v)
        return
    stripes = columns[0].stripes
    for col in columns:
        if col.m != gf.m:
            raise ValueError(f"a block of {col.m}-bit symbols: not an element of GF(2^{gf.m})")
        if col.stripes != stripes or len(col.planes) != rows * gf.m:
            raise ValueError(f"column blocks must all be ({rows}, stripes)")
        if any(plane < 0 or plane.bit_length() > stripes for plane in col.planes):
            raise ValueError(f"a plane has bits outside its {stripes} stripes: "
                             f"not an element of GF(2^{gf.m})")


class Elimination(NamedTuple):
    """Recorded Gaussian elimination of a square matrix M: load rhs[r] into
    slot slot_of_row[r] of a len(rhs)-slot workspace and run `plan`; slot j
    then holds x[j] of the solution of M.x = rhs."""

    slot_of_row: list[int]
    plan: list[Op]


SparseRow = dict[int, int]  # {column: nonzero value}


def _sparse(mat: Sequence[Sequence[int] | SparseRow]) -> list[SparseRow]:
    """Fresh sparse copies of dense or sparse rows, zeros dropped."""
    return [{c: v for c, v in (r.items() if isinstance(r, dict) else enumerate(r)) if v}
            for r in mat]


def _reduce(rows: list[SparseRow], gf: GF2M) -> tuple[list[SparseRow], list[int], list[Op]]:
    """Sparse forward Gaussian elimination of any matrix, in place on its
    rows.  Each column pivots on its sparsest candidate row, the lowest
    index on ties, to keep fill (and so any plan) short; a column with no
    candidate adds no pivot.  A column -> rows index keeps each pivot search
    to the rows that hold the column, and row updates go through the
    log/antilog tables.  Returns the reduced rows, the pivot rows in column
    order (as many as the rank) and the forward ops (target row, factor,
    pivot row)."""
    exp, log = gf._exp, gf._log
    span = gf.order - 1
    holders: dict[int, set[int]] = {}  # column -> the non-pivot rows holding it
    for r, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(r)
    pivot_row: list[int] = []
    forward: list[Op] = []
    for j in sorted(holders):  # fill only ever lands in columns some row holds
        cands = holders[j]
        if not cands:
            continue
        piv = min(cands, key=lambda r: (len(rows[r]), r))
        prow = rows[piv]
        for c in prow:
            holders[c].discard(piv)
        pivot_row.append(piv)
        plogs = [(c, log[v]) for c, v in prow.items()]
        pinv_log = span - log[prow[j]]
        for r in sorted(cands):
            row = rows[r]
            f_log = (log[row[j]] + pinv_log) % span
            for c, v_log in plogs:
                fv = exp[f_log + v_log]
                old = row.get(c)
                if old is None:
                    row[c] = fv
                    holders[c].add(r)
                elif old == fv:
                    del row[c]
                    holders[c].discard(r)
                else:
                    row[c] = old ^ fv
            forward.append((r, exp[f_log], piv))
    return rows, pivot_row, forward


def gf_rank(mat: Sequence[Sequence[int] | SparseRow], gf: GF2M) -> int:
    """Row rank, by the sparse elimination behind every solve.  Rows may be
    dense sequences or {column: value} dicts, such as thick_rows gives."""
    return len(_reduce(_sparse(mat), gf)[1])


def _eliminate(rows: list[SparseRow], gf: GF2M) -> Elimination:
    """Elimination of the sparse rows of a square, nonsingular matrix (in
    place), recorded as a plan on the right-hand side: the forward ops of
    _reduce, then back substitution."""
    n = len(rows)
    rows, pivot_row, forward = _reduce(rows, gf)
    if len(pivot_row) != n:
        raise ValueError("singular matrix")
    slot_of_row = [0] * n
    for j, r in enumerate(pivot_row):
        slot_of_row[r] = j
    plan = [(slot_of_row[dst], f, slot_of_row[src]) for dst, f, src in forward]
    # back substitution: pivot row j now has support only in columns >= j
    for j in reversed(range(n)):
        prow = rows[pivot_row[j]]
        plan += [(j, v, c) for c, v in prow.items() if c != j]
        pinv = gf.inv(prow[j])
        if pinv != 1:
            plan.append((j, pinv, j))
    return Elimination(slot_of_row, plan)


# -- MDS verification and the c0 search ---------------------------------------


def node_subsets(params: CodeParams, size: int) -> Iterable[tuple[Node, ...]]:
    total = math.comb(params.n, size)
    if total > MAX_SUBSET_CHECKS:
        raise ValueError(
            f"{total} subsets exceed the exhaustive-check cap {MAX_SUBSET_CHECKS}; "
            "refusing to sample"
        )
    return itertools.combinations(params.nodes(), size)


def check_mds_ranks(system: ParityCheckSystem) -> list[tuple[Node, ...]]:
    """Rank-check every size-q thick-column submatrix; returns the subsets
    that are NOT full rank (empty list = MDS certificate)."""
    p = system.params
    return [s for s in node_subsets(p, p.q)
            if gf_rank(system.thick_rows(s), p.gf) != p.q * p.alpha]


def sufficient_field_size(params: CodeParams) -> int:
    """Field size above which a valid c0 is guaranteed to exist: one more
    than the degree bound comb(n, k) * q^t * (q-1) of the subset-determinant
    product polynomial."""
    p = params
    return math.comb(p.n, p.k) * p.alpha * (p.q - 1) + 1


def _blocks_full_rank(blocks: list[tuple[int, SparseRow]], c: int, gf: GF2M) -> bool:
    """Whether I + c*M_S is nonsingular, from its btf.shift_blocks: one rank
    check of the block-diagonal I + c*(the blocks' entries)."""
    rows = [{**{v: gf.mul(c, x) for v, x in entries.items()},
             u: 1 ^ gf.mul(c, entries.get(u, 0))} for u, entries in blocks]
    return gf_rank(rows, gf) == len(rows)


def find_c0(params: CodeParams) -> int:
    """Smallest nonzero coefficient making every size-q thick submatrix full
    rank, each candidate dropped at its first singular one.  Each subset's
    btf.shift_blocks are built once, at the first candidate that reaches
    it, and each (subset, candidate) costs one _blocks_full_rank.  Ascending
    scan gives a canonical, reproducible choice; exhaustion means the field
    is too small (guaranteed not to happen once it exceeds
    sufficient_field_size)."""
    from .btf import shift_blocks  # deferred, so only a search compiles it

    unit = build_system(params, 1)
    blocks: dict[tuple[Node, ...], list[tuple[int, SparseRow]]] = {}
    for c in range(1, params.gf.order):
        for s in node_subsets(params, params.q):
            if s not in blocks:
                blocks[s] = shift_blocks(unit, s)
            if not _blocks_full_rank(blocks[s], c, params.gf):
                break
        else:
            return c
    raise ValueError(
        f"no valid c0 in GF(2^{params.gf.m}); retry with a larger field "
        f"(size > {sufficient_field_size(params)} always suffices)"
    )


def find_code(q: int, t: int, m: int | None = None) -> CodeParams:
    """Parameter search entry point: fix the smallest workable field (or the
    one given) and the canonical c0.  With m omitted, starts at the smallest
    m whose field holds n evaluation points and escalates on search failure.
    """
    if m is not None:
        params = make_params(q, t, m)
        return params.with_c0(find_c0(params))
    start = smallest_field_degree(t * q)
    last_err: Exception | None = None
    for mm in range(start, 17):
        params = make_params(q, t, mm)
        try:
            return params.with_c0(find_c0(params))
        except ValueError as err:
            last_err = err
    raise ValueError(f"no valid c0 up to GF(2^16): {last_err}")
