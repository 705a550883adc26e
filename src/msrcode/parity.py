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
build_system builds H for CodeParams.c0, and refuses params without one.
find_c0 returns the smallest valid c0 without a rank check: H_S is
nonsingular exactly when every strongly connected block B of I + c*M_S is,
and B is singular only at the c whose inverse is a root of its
characteristic polynomial (module btf).  valid_c0s collects the c that
each distinct block forbids, in one pass over the subsets per field, and
keeps the rest; the smallest is the c0 an ascending scan of rank checks
would return.  The certificate does not rest on it: check_mds_ranks and
codec.verify_mds eliminate every whole H_S.

H is held in one form: constraint delta*alpha + r, anchored on row ordinal
r, is a tuple of (node ordinal, row ordinal, coeff) triples.  thick_rows
reads any thick submatrix off a sorted copy, as sparse {column: coeff}
rows; no dense matrix is formed.

Every solve is compiled once, by completion_map, into a plan, a
straight-line list of GF ops (dst, coeff, src) on a workspace of symbol
slots: it solves missing thick columns from the constraints anchored on
the rows the other nodes send (all rows for any-k decode, a failed node's
gamma rows for its repair), as the syndrome of the sent symbols then the
recorded sparse elimination (inverse_for), and refuses a constraint that
reads a symbol neither missing nor sent.  run_plan, the one runner,
executes a plan's ops on one stripe of ints, or on a (rows, stripes)
gf.Block of bit planes, each op as plane XORs through the bit matrix of
its coefficient (GF2M.bit_pairs).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Sequence

from .gf import GF2M, MAX_DEGREE, Block
from .params import CodeParams, Node, make_params, smallest_field_degree

# Exhaustive-check ceiling: refuse (rather than silently sample) when the
# number of size-q node subsets exceeds this.
MAX_SUBSET_CHECKS = 10**6
# Size ceiling on H's q^(t+1)*(n+t) terms, checked before anything is built:
# build_system peaks at 66 MiB for (2,13)'s 638,976 and 127 MiB for (2,14)'s
# 1,376,256, and with the encode plan at 131 and 255 MiB.
MAX_TERMS = 2**20


class ParityCheckSystem:
    """All q^(t+1) constraints of one code instance and the Vandermonde
    coefficient matrix.  `terms` holds each constraint's triples in term
    order (the n in-row terms in node order, then for delta != 0 the t
    shifted terms in class order), which the syndrome of a plan reads; a
    sorted copy, the column order of H, gives thick_rows.  Immutable once
    built (the memoised last plan is confined to single-threaded use)."""

    def __init__(self, params: CodeParams, hmds: list[list[int]],
                 terms: Iterable[Iterable[tuple[int, int, int]]]):
        self.params = params
        self.hmds = hmds
        self.terms = tuple(map(tuple, terms))
        self._sorted_terms = [sorted(terms) for terms in self.terms]
        # support disjointness: no two terms of one constraint on one symbol
        # (in-row and shifted entries differ in row, classes differ in node)
        if any(len({(node, row) for node, row, _ in terms}) != len(terms)
               for terms in self._sorted_terms):
            raise ValueError("J0/E supports must not collide")
        self._last: tuple[tuple, list[Op]] | None = None  # (key, plan) of completion_map

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

    def inverse_for(self, missing: Iterable[Node],
                    constraints: Sequence[int]) -> tuple[list[int], list[Op]]:
        """Recorded elimination of the thick submatrix over `missing` on the
        rows of `constraints` (_eliminate); raises ValueError unless it is
        square and nonsingular."""
        p = self.params
        key = sorted(set(missing), key=p.node_ordinal)
        all_rows = self.thick_rows(key)
        rows = [all_rows[c] for c in constraints]
        if len(rows) != len(key) * p.alpha:
            raise ValueError(f"{len(rows)} constraints cannot solve "
                             f"{len(key) * p.alpha} unknowns")
        return _eliminate(rows, p.gf)

    def completion_map(self, missing: Iterable[Node],
                       rows: Sequence[int] | None = None) -> list[Op]:
        """The plan that solves the `missing` thick columns from the
        constraints anchored on `rows`, the row ordinals (ascending; None:
        all alpha) each other node sends: the syndrome of the sent symbols,
        in term order, then the recorded elimination (inverse_for).  Slot
        i*len(rows) + g holds the g-th sent row of the i-th other node, in
        node order; the missing columns follow, alpha slots each.  Raises
        ValueError if a constraint reads a symbol neither missing nor sent,
        or unless the system is square and nonsingular.  Only the last plan
        is memoised: a command runs one on every block."""
        p = self.params
        key = (tuple(sorted(set(missing), key=p.node_ordinal)),
               None if rows is None else tuple(rows))
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        lost, sent = key[0], range(p.alpha) if rows is None else key[1]
        if list(sent) != sorted(set(sent) & set(range(p.alpha))):
            raise ValueError("rows must be ascending row ordinals of the code")
        lost_ordinals = {p.node_ordinal(nd) for nd in lost}
        others = [o for o in range(p.n) if o not in lost_ordinals]
        slot = {o * p.alpha + row: i * len(sent) + g
                for i, o in enumerate(others) for g, row in enumerate(sent)}.get
        anchored = [delta * p.alpha + row for delta in range(p.q) for row in sent]
        slot_of_row, elimination = self.inverse_for(lost, anchored)
        out, plan = len(others) * len(sent), []
        for r, c in enumerate(anchored):
            dst = out + slot_of_row[r]
            for node, row, coeff in self.terms[c]:
                src = slot(node * p.alpha + row)
                if src is not None:
                    plan.append((dst, coeff, src))
                elif node not in lost_ordinals:
                    raise ValueError(f"constraint {c} reads node {p.node_at(node)}'s symbol on "
                                     f"row {p.row_at(row)}, which is neither missing nor sent")
        plan += [(out + dst, coeff, out + src) for dst, coeff, src in elimination]
        self._last = (key, plan)
        return plan


def build_hmds(params: CodeParams) -> list[list[int]]:
    """The q x n Vandermonde coefficient matrix: entry (r, j) is a_j^r with
    a_j = x^(j+1), read off the field's table of the powers of x (x is
    primitive, so no generator is searched for).  Row 0 is all ones; the
    a_j are distinct and nonzero, so any q columns are independent (the
    parity-check of an [n, k] MDS code)."""
    gf = params.gf
    return [[gf.exp((j + 1) * r) for j in range(params.n)] for r in range(params.q)]


def _check_size(params: CodeParams) -> None:
    """Refuse a code whose H would hold more than MAX_TERMS terms."""
    terms = params.q ** (params.t + 1) * (params.n + params.t)
    if terms > MAX_TERMS:
        raise ValueError(f"(q={params.q}, t={params.t}) needs {terms} parity-check terms, "
                         f"over the size cap {MAX_TERMS}")


def build_system(params: CodeParams) -> ParityCheckSystem:
    """Assemble all constraints of the code `params` names, with its c0 as
    the shifted-entry coefficient; ValueError when c0 is unset or the code
    is over the size cap, before anything is built."""
    q, t, c0 = params.q, params.t, params.c0
    if c0 is None:
        raise ValueError("no valid c0 (run the coefficient search)")
    _check_size(params)
    hmds = build_hmds(params)
    terms = []
    for delta in range(q):
        coeff_row = hmds[delta]
        for r, anchor in enumerate(params.rows()):
            con = [(node, r, coeff_row[node]) for node in range(params.n)]
            if delta != 0:
                # class j's shifted term: node (j, x_j) on the anchor row
                # with x_j replaced by x_j - delta (mod q)
                for j, xj in enumerate(anchor, start=1):
                    shift = ((xj - delta) % q - xj) * q ** (t - j)
                    con.append((params.node_ordinal((j, xj)), r + shift, c0))
            terms.append(con)
    return ParityCheckSystem(params, hmds, terms)


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
    ints, each op multiplies through the field's log/antilog tables, and
    the output comes back as a new list.  On a block the columns are Blocks
    of one stripe count, a slot is a list of its row's m planes, and an op
    (dst, c, src) XORs plane i of slot src into plane r of slot dst for
    each pair (r, i) of gf.bit_pairs(c); an in-place scale (dst == src)
    sets the slot's planes aside and XORs them into a zero slot.  The
    output is a new (n_out, stripes) Block."""
    if isinstance(columns[0], list):
        ws = [v for col in columns for v in col] + [0] * n_out
        exp, log = gf._exp, gf._log
        for dst, coeff, src in plan:
            v = ws[src]
            if v:
                v = exp[log[coeff] + log[v]] if coeff else 0
            if dst == src:
                ws[dst] = v
            else:
                ws[dst] ^= v
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


SparseRow = dict[int, int]  # {column: nonzero value}


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
    dense sequences or {column: value} dicts, such as thick_rows gives;
    the elimination runs on fresh sparse copies, zeros dropped."""
    rows = [{c: v for c, v in (r.items() if isinstance(r, dict) else enumerate(r)) if v}
            for r in mat]
    return len(_reduce(rows, gf)[1])


def _eliminate(rows: list[SparseRow], gf: GF2M) -> tuple[list[int], list[Op]]:
    """Elimination of the sparse rows of a square, nonsingular matrix M (in
    place), recorded as (slot_of_row, plan) on the right-hand side: load
    rhs[r] into slot slot_of_row[r] of a len(rhs)-slot workspace and run
    plan, the forward ops of _reduce then back substitution; slot j then
    holds x[j] of the solution of M.x = rhs."""
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
    return slot_of_row, plan


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


class NoValidC0(ValueError):
    """valid_c0s found every nonzero candidate of its field forbidden: a
    larger field may hold a valid c0."""


@functools.lru_cache(maxsize=1)
def valid_c0s(params: CodeParams) -> tuple[int, ...]:
    """Every nonzero coefficient making each size-q thick submatrix full
    rank, ascending, for `params` without c0, in one pass over the subsets.
    Each subset's btf.shift_blocks are the diagonal blocks B of I + c*M_S
    that can be singular; each distinct B adds the c it forbids
    (btf.forbidden_c) to the field's forbidden set, and the valid c0s are
    the rest.  A code with more subsets than MAX_SUBSET_CHECKS raises
    ValueError before any system is built; a full forbidden set raises
    NoValidC0 at once, the field being too small (the subsets' determinants
    multiply to a nonzero polynomial in c, so a large enough field holds a
    valid c0).  The last field's answer is kept, so init's count after
    find_code costs no second pass."""
    from .btf import forbidden_c, shift_blocks  # deferred, so only a search compiles it

    gf = params.gf
    node_subsets(params, params.q)  # the cap, checked before the build
    unit = build_system(params.with_c0(1))
    forbidden, seen = set(), set()
    for s in node_subsets(params, params.q):
        for block in shift_blocks(unit, s):
            if block not in seen:
                seen.add(block)
                forbidden |= forbidden_c(block, gf)
        if len(forbidden) == gf.order - 1:
            raise NoValidC0(f"no valid c0 in GF(2^{gf.m}); retry with a larger field")
    return tuple(c for c in range(1, gf.order) if c not in forbidden)


def find_c0(params: CodeParams) -> int:
    """The smallest valid c0 (valid_c0s, whose errors it raises), the one
    an ascending scan that drops each candidate at its first singular H_S
    would return: a canonical, reproducible choice."""
    return valid_c0s(params)[0]


def find_code(q: int, t: int, m: int | None = None) -> CodeParams:
    """Parameter search entry point: fix the smallest workable field (or the
    one given) and the canonical c0.  With m omitted, starts at the smallest
    m whose field holds n evaluation points and moves to the next field only
    while the search exhausts one (NoValidC0); any other ValueError, such as
    the subset cap, ends the search at once.
    """
    degrees = range(smallest_field_degree(t * q), MAX_DEGREE + 1) if m is None else [m]
    for mm in degrees:
        params = make_params(q, t, mm)
        try:
            return params.with_c0(find_c0(params))
        except NoValidC0:
            if mm == degrees[-1]:
                raise
