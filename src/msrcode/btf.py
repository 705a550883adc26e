"""The block triangular form behind the c0 search, parity.find_c0.

For a size-q node set S the thick submatrix H_S = J0_S + c*E_S is
(V_S (x) I)(I + c*M_S), where V_S is the q x q Vandermonde block of S and
M_S = (V_S^-1 (x) I)*E_S does not depend on c.  V_S is nonsingular, so H_S
is nonsingular exactly when I + c*M_S is.  Ordered by the strongly
connected components of M_S's graph, I + c*M_S is block triangular, so it
is nonsingular exactly when each diagonal block is (Tarjan's components,
as in Duff & Reid, ACM TOMS 1978).  A component with no edge is an
identity row, and the blocks off the diagonal do not change the
determinant.  Only find_c0 imports this module, so no other command
compiles it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .gf import GF2M
from .params import Node
from .parity import ParityCheckSystem, SparseRow


def vandermonde_inverse(points: Sequence[int], gf: GF2M) -> list[list[int]]:
    """The inverse of the Vandermonde matrix [a^d] (row d, column a over
    `points`): row i holds the coefficients, by ascending power, of the
    Lagrange polynomial that is 1 at points[i] and 0 at the other points."""
    rows = []
    for i, a in enumerate(points):
        poly, denom = [1], 1
        for b in points[:i] + points[i + 1 :]:
            poly = [x ^ gf.mul(b, y) for x, y in zip([0] + poly, poly + [0])]  # times (x + b)
            denom = gf.mul(denom, a ^ b)
        rows.append([gf.mul(gf.inv(denom), v) for v in poly])
    return rows


def components(graph: Sequence[SparseRow]) -> dict[int, int]:
    """Tarjan's strongly connected components of the digraph with an edge
    u -> v for each key v of graph[u], without recursion: vertex -> the
    vertex its component was entered at."""
    index: dict[int, int] = {}
    low, comp, stack, work = {}, {}, [], []

    def enter(v: int) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        work.append((v, iter(graph[v])))

    for root in range(len(graph)):
        if root not in index:
            enter(root)
        while work:
            u, edges = work[-1]
            for v in edges:
                if v not in index:
                    enter(v)
                    break
                if v not in comp:  # on the stack
                    low[u] = min(low[u], index[v])
            else:  # every edge of u is done
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[u])
                while low[u] == index[u] and u not in comp:
                    comp[stack.pop()] = u
    return comp


def shift_blocks(unit: ParityCheckSystem, nodes: Iterable[Node]) -> list[tuple[int, SparseRow]]:
    """The rows of M_S = (V_S^-1 (x) I)*E_S inside a strongly connected
    component with an edge, for the thick columns S over `nodes` of the
    c0 = 1 system `unit`: each as (row, {column: entry} inside its
    component).  The diagonal blocks of I + c*M_S that can be singular are
    the identity on these rows plus c times these entries."""
    p = unit.params
    chosen = sorted({p.node_ordinal(nd) for nd in nodes})
    base = {node: i * p.alpha for i, node in enumerate(chosen)}
    vinv = vandermonde_inverse([unit.hmds[1][node] for node in chosen], p.gf)
    mat: list[SparseRow] = [{} for _ in range(len(chosen) * p.alpha)]
    for con in range(p.alpha, unit.n_constraints):  # E_S's rows: delta != 0
        delta, r = divmod(con, p.alpha)
        cols = [base[node] + row for node, row, _ in unit.terms[con][p.n :] if node in base]
        for i, coeffs in enumerate(vinv):
            if coeffs[delta]:
                row = mat[i * p.alpha + r]
                for col in cols:
                    row[col] = row.get(col, 0) ^ coeffs[delta]
    comp = components(mat)
    blocks = [(u, {v: x for v, x in row.items() if comp[v] == comp[u]})
              for u, row in enumerate(mat)]
    return [(u, row) for u, row in blocks if row]
