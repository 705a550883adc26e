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
where chi_B(x) = det(xI + B): c = 1/lambda for each nonzero root lambda of
chi_B in the field.  A block [[0, a], [b, 0]] has chi_B = x^2 + ab, so it
forbids c = sqrt(1/(ab)) alone.  Any other block's chi_B comes from its
Hessenberg form and the Hessenberg recurrence, and its roots from the gcd
with x^(2^m) + x, split by gcds with the trace Tr(beta*x) (Berlekamp, Math.
Comp. 1970; Rabin, SIAM J. Comput. 1980).  Polynomials are lists of
coefficients by ascending power, with no trailing zero.  Only valid_c0s
imports this module, so no other command compiles it.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Sequence

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


def forbidden_c(block: ShiftBlock, gf: GF2M) -> set[int]:
    """The nonzero c with I + c*block singular."""
    mul, inv = gf.mul, gf.inv
    if len(block) == 2 and [col for row in block for col, _ in row] == [1, 0]:  # [[0, a], [b, 0]]
        c = inv(mul(block[0][0][1], block[1][0][1]))
        for _ in range(gf.m - 1):  # sqrt(y) = y^(2^(m-1))
            c = mul(c, c)
        return {c}
    return {inv(root) for root in _split(_nonzero_roots_part(charpoly(block, gf), gf), gf)}


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


def _trim(poly: list[int]) -> list[int]:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _add(a: list[int], b: list[int]) -> list[int]:
    return _trim([x ^ y for x, y in zip_longest(a, b, fillvalue=0)])


def _divmod(a: list[int], b: list[int], gf: GF2M) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic b."""
    rem, db = list(a), len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for i in reversed(range(db, len(a))):
        f = rem[i]
        if f:
            quot[i - db] = f
            for j in range(db + 1):
                rem[i - db + j] ^= gf.mul(f, b[j])
    return quot, _trim(rem[:db])


def _monic(poly: list[int], gf: GF2M) -> list[int]:
    lead = gf.inv(poly[-1])
    return [gf.mul(lead, v) for v in poly]


def _gcd(a: list[int], b: list[int], gf: GF2M) -> list[int]:
    """The monic gcd of a and b, not both zero."""
    while b:
        b = _monic(b, gf)
        a, b = b, _divmod(a, b, gf)[1]
    return _monic(a, gf)


def _square_mod(a: list[int], f: list[int], gf: GF2M) -> list[int]:
    """a^2 mod the monic f: squaring in characteristic 2 squares each
    coefficient and doubles each power."""
    sq = [0] * (2 * len(a))
    for i, v in enumerate(a):
        sq[2 * i] = gf.mul(v, v)
    return _divmod(sq, f, gf)[1]


def _nonzero_roots_part(chi: list[int], gf: GF2M) -> list[int]:
    """The monic product of x + lambda over the distinct nonzero roots
    lambda of the monic chi in GF(2^m): gcd(chi, x^(2^m) + x), less the
    factor x."""
    r = _divmod([0, 1], chi, gf)[1]
    for _ in range(gf.m):  # x^(2^m) mod chi
        r = _square_mod(r, chi, gf)
    g = _gcd(chi, _add(r, [0, 1]), gf)
    return g[1:] if not g[0] else g


def _split(g: list[int], gf: GF2M, first: int = 0) -> list[int]:
    """The roots of the monic g, a product of distinct x + lambda over the
    field, whose roots agree on Tr(x^j * lambda) for every j < first.  The
    trace Tr(y) = y + y^2 + ... + y^(2^(m-1)) is 0 or 1 on the field, and
    for two distinct roots some basis element x^j gives them different
    Tr(x^j * lambda), so gcd(g, Tr(x^j * x) mod g) splits g."""
    if len(g) <= 2:
        return g[:1] if len(g) == 2 else []  # x + lambda: the root lambda
    for j in range(first, gf.m):
        y = _divmod([0, gf.exp(j)], g, gf)[1]  # x^j * x mod g
        tr = list(y)
        for _ in range(gf.m - 1):
            y = _square_mod(y, g, gf)
            tr = _add(tr, y)
        d = _gcd(g, tr, gf)
        if 1 < len(d) < len(g):
            return _split(d, gf, j + 1) + _split(_divmod(g, d, gf)[0], gf, j + 1)
    raise ArithmeticError(f"{g} is not a product of distinct linear factors over GF(2^{gf.m})")
