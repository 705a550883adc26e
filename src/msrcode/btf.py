"""The block triangular form behind the c0 search, parity.valid_c0s, and the
values of c each block forbids.

For a size-q node set S the thick submatrix H_S = J0_S + c*E_S is
(V_S (x) I)(I + c*M_S), where V_S is the q x q Vandermonde block of S and
M_S = (V_S^-1 (x) I)*E_S does not depend on c.  V_S is nonsingular, so H_S
is nonsingular exactly when I + c*M_S is.  Ordered by the strongly
connected components of M_S's graph, I + c*M_S is block triangular, so it
is nonsingular exactly when each diagonal block I + c*B is (Tarjan's
components, as in Duff & Reid, ACM TOMS 1978).  A component with no edge
is an identity row, and the blocks off the diagonal do not change the
determinant.

An s x s block B forbids the c with det(I + c*B) = c^s chi_B(1/c) = 0,
where chi_B(x) = det(xI + B).  A block [[0, a], [b, 0]] has
chi_B = x^2 + ab, so it forbids c = sqrt(1/(ab)) alone.  Any other block's
chi_B comes from its Hessenberg form and the Hessenberg recurrence, and
c^s chi_B(1/c), chi_B's coefficients read in reverse, is evaluated by
Horner at each candidate c the search has not yet ruled out: the field is
small enough to enumerate.  Polynomials are lists of coefficients by
ascending power.  Only valid_c0s imports this module, so no other command
compiles it.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence

from .gf import GF2M
from .params import Node
from .parity import ParityCheckSystem, SparseRow

# One diagonal block of M_S, its rows relabelled 0..s-1 in ascending order:
# row i as its ((column, entry), ...) by ascending column.  Equal blocks
# forbid the same c, so a block is its own key.
ShiftBlock = tuple[tuple[tuple[int, int], ...], ...]


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


def components(graph: Sequence[SparseRow]) -> list[list[int]]:
    """Tarjan's strongly connected components of the digraph with an edge
    u -> v for each key v of graph[u], without recursion: each as the list
    of its vertices, popped whole off the stack."""
    size = len(graph)
    index, low = [-1] * size, [0] * size
    depth = [0] * size  # a vertex's place on the stack
    done = [False] * size
    stack, work, comps = [], [], []
    count = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        depth[root] = len(stack)
        stack.append(root)
        work.append((root, iter(graph[root])))
        while work:
            u, edges = work[-1]
            for v in edges:
                if index[v] < 0:
                    index[v] = low[v] = count
                    count += 1
                    depth[v] = len(stack)
                    stack.append(v)
                    work.append((v, iter(graph[v])))
                    break
                if not done[v] and index[v] < low[u]:  # on the stack
                    low[u] = index[v]
            else:  # every edge of u is done
                work.pop()
                if work and low[u] < low[work[-1][0]]:
                    low[work[-1][0]] = low[u]
                if low[u] == index[u]:  # u entered its component: pop it whole
                    comp = stack[depth[u] :]
                    del stack[depth[u] :]
                    for v in comp:
                        done[v] = True
                    comps.append(comp)
    return comps


def shift_blocks(unit: ParityCheckSystem, nodes: Iterable[Node]) -> list[ShiftBlock]:
    """The diagonal blocks of M_S = (V_S^-1 (x) I)*E_S that can make
    I + c*M_S singular, for the thick columns S over `nodes` of the c0 = 1
    system `unit`: one per strongly connected component with an edge."""
    p = unit.params
    q, alpha, n, terms = p.q, p.alpha, p.n, unit.terms
    chosen = sorted({p.node_ordinal(nd) for nd in nodes})
    base = {node: i * alpha for i, node in enumerate(chosen)}
    vinv = vandermonde_inverse([unit.hmds[1][node] for node in chosen], p.gf)
    mat: list[SparseRow] = [{} for _ in range(len(chosen) * alpha)]
    for r in range(alpha):
        # E_S's entries on row r: constraint delta*alpha + r puts 1 on the
        # shifted symbols of S it reads, one delta per column
        cols = [(delta, base[node] + row) for delta in range(1, q)
                for node, row, _ in terms[delta * alpha + r][n:] if node in base]
        if cols:
            for i, coeffs in enumerate(vinv):
                mat[i * alpha + r] = {col: coeffs[delta] for delta, col in cols if coeffs[delta]}
    blocks = []
    for comp in components(mat):
        if len(comp) > 1 or comp[0] in mat[comp[0]]:
            comp.sort()
            at = {u: i for i, u in enumerate(comp)}
            blocks.append(tuple(tuple(sorted((at[v], x) for v, x in mat[u].items() if v in at))
                                for u in comp))
    return blocks


def forbidden_c(block: ShiftBlock, gf: GF2M, candidates: Collection[int]) -> set[int]:
    """The c among the nonzero `candidates` with I + c*block singular."""
    mul, inv = gf.mul, gf.inv
    if len(block) == 2 and [col for row in block for col, _ in row] == [1, 0]:  # [[0, a], [b, 0]]
        c = inv(mul(block[0][0][1], block[1][0][1]))
        for _ in range(gf.m - 1):  # sqrt(y) = y^(2^(m-1))
            c = mul(c, c)
        return {c} if c in candidates else set()
    exp, log = gf._exp, gf._log
    cands = list(candidates)
    logs = [log[c] for c in cands]
    chi = charpoly(block, gf)
    vals = [chi[0]] * len(cands)
    for v in chi[1:]:  # Horner: det(I + c*B) = sum of chi[i] * c^(s-i)
        vals = [(exp[log[x] + lc] if x else 0) ^ v for x, lc in zip(vals, logs)]
    return {c for c, x in zip(cands, vals) if not x}


def charpoly(block: ShiftBlock, gf: GF2M) -> list[int]:
    """det(xI + B) of the block B: B is brought to upper Hessenberg form H
    by similarity (row operations below the subdiagonal, each undone on the
    columns), then p_0 = 1 and p_(k+1) = (x + h_kk) p_k + sum over i < k of
    h_ik * h_(k,k-1) ... h_(i+1,i) * p_i, whose last is chi_B."""
    mul, inv = gf.mul, gf.inv
    s = len(block)
    h = [[0] * s for _ in range(s)]
    for i, row in enumerate(block):
        for j, x in row:
            h[i][j] = x
    for j in range(s - 2):
        piv = next((i for i in range(j + 1, s) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:  # swap rows and columns j+1 and piv
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        pinv = inv(h[j + 1][j])
        for i in range(j + 2, s):
            if h[i][j]:
                f = mul(h[i][j], pinv)  # row i += f * row j+1, column j+1 += f * column i
                h[i] = [a ^ mul(f, b) for a, b in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] ^= mul(f, row[i])
    polys = [[1]]
    for k in range(s):
        p = [0] + polys[k]  # x * p_k
        _add_scaled(p, h[k][k], polys[k], gf)
        prod = 1
        for i in reversed(range(k)):
            prod = mul(prod, h[i + 1][i])
            if not prod:
                break
            _add_scaled(p, mul(h[i][k], prod), polys[i], gf)
        polys.append(p)
    return polys[s]


def _add_scaled(acc: list[int], c: int, poly: list[int], gf: GF2M) -> None:
    """acc += c * poly, in place; acc is at least as long as poly."""
    if c:
        for i, v in enumerate(poly):
            acc[i] ^= gf.mul(c, v)
