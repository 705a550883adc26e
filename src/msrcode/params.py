"""Code parameters and the row/node index spaces of the codeword array.

A code instance is determined by the index-ring modulus q, the rate
parameter t (rate (t-1)/t), and the symbol field.  Everything else is
derived: n = t*q nodes each storing alpha = q^t symbols, dimension
k = (t-1)*q, and single-node repair from d = n-1 helpers pulling
beta = q^(t-1) symbols each.

Rows of the alpha x n codeword array are indexed by t-tuples over [0, q);
nodes by a pair (i, theta) with class i in 1..t and theta in [0, q).  Both
spaces get fixed bijections to flat ordinals so matrices and shard files
have one canonical layout: rows lexicographic with the first coordinate
most significant, nodes class-major.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator

from .gf import GF2M, MAX_DEGREE

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

Row = tuple[int, ...]
Node = tuple[int, int]


class Record:
    """A mutable record of the fields in its __slots__: equal by value, so unhashable."""

    __slots__ = ()
    __hash__ = None

    def _asdict(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}

    def __eq__(self, other):
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in self._asdict().items())})"


class CodeParams(namedtuple("CodeParams", "q t gf c0")):
    """Parameter set of one code instance, the single source of truth for
    all dimensions: an immutable (q, t, gf, c0) tuple.  c0 (the shifted-entry
    coefficient) starts unset and is filled in by the MDS coefficient search."""

    __slots__ = ()

    def __new__(cls, q: int, t: int, gf: GF2M, c0: int | None = None):
        self = super().__new__(cls, q, t, gf, c0)
        if self.q < 2:
            raise ValueError("q must be >= 2 (q=1 leaves no nonzero shifts, so no delta-parities)")
        if self.t < 2:
            raise ValueError("t must be >= 2 (rate (t-1)/t needs t >= 2)")
        if self.gf.order - 1 < self.n:
            raise ValueError(
                f"field GF(2^{self.gf.m}) has only {self.gf.order - 1} nonzero elements; "
                f"need at least n={self.n} distinct evaluation points"
            )
        if self.c0 is not None:
            if not 0 < self.c0 < self.gf.order:
                raise ValueError(f"c0={self.c0} must be a nonzero element of GF(2^{self.gf.m})")
        return self

    # -- derived dimensions ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.t * self.q

    @property
    def k(self) -> int:
        return (self.t - 1) * self.q

    @property
    def d(self) -> int:
        return self.n - 1

    @property
    def alpha(self) -> int:
        """Sub-packetization: symbols stored per node."""
        return self.q**self.t

    @property
    def beta(self) -> int:
        """Symbols downloaded per helper during repair."""
        return self.q ** (self.t - 1)

    @property
    def message_len(self) -> int:
        """Symbols per stripe (the file size B = k * alpha)."""
        return self.k * self.alpha

    @property
    def rate(self) -> Fraction:
        from fractions import Fraction  # loads decimal, 3-5 ms: only stats prints the rate
        return Fraction(self.t - 1, self.t)

    def with_c0(self, c0: int) -> "CodeParams":
        """A copy with c0 set; the constructor refuses any c0 outside 1..2^m-1."""
        return CodeParams(self.q, self.t, self.gf, c0)

    # -- index bijections -------------------------------------------------------

    def row_at(self, ordinal: int) -> Row:
        if not 0 <= ordinal < self.alpha:
            raise ValueError(f"row ordinal {ordinal} out of [0, {self.alpha})")
        coords = []
        for _ in range(self.t):
            coords.append(ordinal % self.q)
            ordinal //= self.q
        return tuple(reversed(coords))

    def node_ordinal(self, node: Node) -> int:
        """Class-major ordinal (i-1)*q + theta, matching the block layout of H."""
        i, theta = node
        if not (1 <= i <= self.t and 0 <= theta < self.q):
            raise ValueError(f"node {node} out of range for (q={self.q}, t={self.t})")
        return (i - 1) * self.q + theta

    def node_at(self, ordinal: int) -> Node:
        if not 0 <= ordinal < self.n:
            raise ValueError(f"node ordinal {ordinal} out of [0, {self.n})")
        return ordinal // self.q + 1, ordinal % self.q

    def rows(self) -> Iterator[Row]:
        """All rows in ascending ordinal order."""
        return itertools.product(range(self.q), repeat=self.t)

    def nodes(self) -> Iterator[Node]:
        """All nodes in ascending ordinal order."""
        return ((i, theta) for i in range(1, self.t + 1) for theta in range(self.q))

    def systematic_nodes(self) -> tuple[Node, ...]:
        """The first k node ordinals: every class except the last."""
        return tuple((i, theta) for i in range(1, self.t) for theta in range(self.q))

    def parity_nodes(self) -> tuple[Node, ...]:
        return tuple((self.t, theta) for theta in range(self.q))

    # -- repair geometry --------------------------------------------------------

    def gamma_runs(self, failed: Node) -> list[tuple[int, int]]:
        """The helper rows for repairing failed = (i0, theta0), the q^(t-1)
        rows whose coordinate i0 is theta0, as (start ordinal, length) runs
        of consecutive rows, ascending: one run of q^(t-i0) rows per value
        of the coordinates before i0.  The one definition of a helper's
        rows: repair's plan slots and the shard reads both follow it."""
        i0, theta0 = failed
        self.node_ordinal(failed)  # validate
        length = self.q ** (self.t - i0)
        return [((head * self.q + theta0) * length, length)
                for head in range(self.q ** (i0 - 1))]

    def __repr__(self) -> str:
        c = f", c0={self.c0}" if self.c0 is not None else ""
        return f"CodeParams(q={self.q}, t={self.t}, gf={self.gf!r}{c})"


def smallest_field_degree(n: int) -> int:
    """The least m whose GF(2^m) has n nonzero evaluation points, m <= MAX_DEGREE."""
    m = max(n, 1).bit_length()  # the least m with 2^m - 1 >= n
    if m > MAX_DEGREE:
        raise ValueError(f"n={n} nodes need more nonzero elements than GF(2^{MAX_DEGREE}) has")
    return m


def make_params(q: int, t: int, m: int) -> CodeParams:
    """Build a parameter set over GF(2^m).  c0 is left unset."""
    return CodeParams(q=q, t=t, gf=GF2M(m))
