"""GF(2^m) arithmetic on integer-coded polynomials, and bit-sliced blocks
of symbols.

Field elements are plain ints in [0, 2^m).  Addition is XOR; multiplication
and inversion go through log/antilog tables built once per field.  There is
one field per m: its reduction polynomial is the primitive DEFAULT_POLYS[m],
so the antilog table is the powers of x, one multiply by x (shift left,
reduce) per entry, with no generator search -- the construction in Plank's
tutorial on Reed-Solomon coding for RAID (SP&E 1997).  Multiplication by a
constant c is GF(2)-linear in the bits of the symbol, so it is also an
m x m bit matrix (GF2M.bit_pairs): on a Block, whose symbols are stored as
m bit planes per row, multiplying by c is a few plane XORs, the XOR-based
coding of Bloemer et al. (1995) and of Cauchy Reed-Solomon.  GF2M.mul_vec
multiplies a whole Block by c by shift-and-add on its planes, and
bit_pairs reads the bit matrix of c off c times the basis 1, x, ...,
x^(m-1).  m is capped at MAX_DEGREE = 16.
"""

from __future__ import annotations

from typing import Iterable

MAX_DEGREE = 16

# The reduction polynomial of each extension degree.  All entries are
# primitive, so x (= 2) generates the multiplicative group and the same m
# always yields the same tables; GF2M refuses an entry that is not.
# Changing any entry breaks decodability of previously written shards.
DEFAULT_POLYS = {
    1: 0b11,       # x + 1
    2: 0b111,      # x^2 + x + 1
    3: 0b1011,     # x^3 + x + 1
    4: 0b10011,    # x^4 + x + 1
    5: 0b100101,   # x^5 + x^2 + 1
    6: 0b1000011,  # x^6 + x + 1
    7: 0b10001001,  # x^7 + x^3 + 1
    8: 0x11D,      # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,      # x^9 + x^4 + 1
    10: 0x409,     # x^10 + x^3 + 1
    11: 0x805,     # x^11 + x^2 + 1
    12: 0x1053,    # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,    # x^13 + x^4 + x^3 + x + 1
    14: 0x4443,    # x^14 + x^10 + x^6 + x + 1
    15: 0x8003,    # x^15 + x + 1
    16: 0x1100B,   # x^16 + x^12 + x^3 + x + 1
}


class GF2M:
    """The symbol field GF(2^m), with its arithmetic tables.

    The scalar ops use the log/antilog lists built here.  bit_pairs(c), the
    bit matrix of multiplication by c, is built on first use and cached in
    `_bit_pairs`, keyed by c.

    Otherwise immutable after construction; all operations are pure
    functions, so one instance can be shared freely across threads/tasks.
    Two threads may both build a missing bit matrix and both store it, but
    they are equal and a dict store is atomic, so either one serves.
    """

    def __init__(self, m: int):
        if not 1 <= m <= MAX_DEGREE:
            raise ValueError(f"extension degree m={m} out of range 1..{MAX_DEGREE}")
        self.m = m
        self.poly = poly = DEFAULT_POLYS[m]
        self.order = order = 1 << m  # field size; multiplicative group has order-1 elements
        # exp[i] = x^i and log[x^i] = i, one multiply by x a step: shift
        # left, then reduce when the x^m bit is set.  exp is doubled so mul()
        # needs no modulo.
        exp, log = [0] * (2 * (order - 1)), [0] * order
        a = 1
        for i in range(order - 1):
            exp[i] = exp[i + order - 1] = a
            log[a] = i
            a <<= 1
            if a & order:
                a ^= poly
        if a != 1 or log[1] != 0:  # x^(2^m - 1) != 1, or x^i = 1 for some 0 < i < 2^m - 1
            raise ValueError(f"{poly:#x} is not primitive: x does not generate GF(2^{m})*")
        self._exp, self._log = exp, log
        self._bit_pairs: dict[int, tuple[tuple[int, int], ...]] = {}  # c -> bit matrix

    # -- scalar ops ---------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[self.order - 1 - self._log[a]]

    def exp(self, i: int) -> int:
        """x^i, for any integer i."""
        return self._exp[i % (self.order - 1)]

    def validate(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of GF(2^{self.m})")
        return a

    # -- bulk ops -----------------------------------------------------------

    def bit_pairs(self, c: int) -> tuple[tuple[int, int], ...]:
        """The m x m bit matrix of multiplication by c, as the (r, i) pairs
        of its set entries: bit r of c*x is the XOR of bit i of x over the
        pairs (r, i), since bit r of c*x^i is set.  Read off c times the
        basis block, whose stripe i holds x^i.  Cached per c."""
        pairs = self._bit_pairs.get(c)
        if pairs is None:
            m = self.m
            planes = self.mul_vec(c, Block(m, m, [1 << b for b in range(m)])).planes
            pairs = self._bit_pairs[c] = tuple(
                (r, i) for i in range(m) for r in range(m) if planes[r] >> i & 1)
        return pairs

    def mul_vec(self, c: int, v: Block) -> Block:
        """c times every symbol of the Block v, on its bit planes: the XOR
        of x^j * v over the set bits j of c, where x * v moves each row's
        planes up one bit and folds the top plane back in through the
        reduction polynomial.  Raises ValueError unless c is a field element
        and v a block of m-bit symbols."""
        m = self.m
        self.validate(c)
        if v.m != m:
            raise ValueError(f"a block of {v.m}-bit symbols: not an element of GF(2^{m})")
        fold = [r for r in range(m) if self.poly >> r & 1]  # x^m = the poly's low bits
        out = []
        for at in range(0, len(v.planes), m):
            row, acc = v.planes[at : at + m], [0] * m
            for j in range(c.bit_length()):
                if c >> j & 1:
                    acc = [a ^ p for a, p in zip(acc, row)]
                top, row = row[-1], [0, *row[:-1]]
                for r in fold:
                    row[r] ^= top
            out += acc
        return Block(m, v.stripes, out)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2M) and self.m == other.m  # poly is DEFAULT_POLYS[m]

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self) -> str:
        return f"GF2M(m={self.m}, poly={self.poly:#x})"


class Block:
    """A (rows, stripes) block of GF(2^m) symbols, bit-sliced: m planes per
    row, each one int, so `planes` holds rows*m ints, row-major.  Bit s of
    planes[r*m + b] is bit b of row r's symbol on stripe s.  As bytes
    (from_bytes, to_bytes) the planes are `stripes` bits each, back to
    back in (row, bit) order, LSB first: bit s of plane i is bit
    i*stripes + s of the bytes, and the last byte is zero-filled.
    Blocks are not modified once made: the ints are immutable and the
    functions here build new lists."""

    __slots__ = ("m", "stripes", "planes")

    def __init__(self, m: int, stripes: int, planes: list[int]):
        self.m, self.stripes, self.planes = m, stripes, planes

    @property
    def rows(self) -> int:
        return len(self.planes) // self.m

    @property
    def size(self) -> int:
        """The number of symbols: rows * stripes."""
        return self.rows * self.stripes

    @classmethod
    def from_bytes(cls, data, m: int, rows: int, stripes: int) -> "Block":
        """The block whose to_bytes() is `data`, rows*m*stripes bits."""
        count = rows * m
        if len(data) != -(-count * stripes // 8):
            raise ValueError(f"{len(data)} bytes are not {rows} rows of {m} planes "
                             f"of {stripes} stripes")
        if stripes % 8 == 0:  # each plane is whole bytes
            width, view = stripes // 8, memoryview(data)
            return cls(m, stripes, [int.from_bytes(view[i * width : (i + 1) * width], "little")
                                    for i in range(count)])
        # 8 planes are `stripes` whole bytes: cut each 8 out of one int
        mask, planes = (1 << stripes) - 1, []
        for at in range(0, count, 8):
            group = int.from_bytes(data[at * stripes // 8 : (at + 8) * stripes // 8], "little")
            planes += [group >> i * stripes & mask for i in range(min(8, count - at))]
        return cls(m, stripes, planes)

    def to_bytes(self) -> bytes:
        stripes, planes = self.stripes, self.planes
        if stripes % 8 == 0:
            return b"".join(plane.to_bytes(stripes // 8, "little") for plane in planes)
        groups = []
        for at in range(0, len(planes), 8):
            group = 0
            for i, plane in enumerate(planes[at : at + 8]):
                group |= plane << i * stripes
            groups.append(group.to_bytes(-(-min(8, len(planes) - at) * stripes // 8), "little"))
        return b"".join(groups)

    def take(self, rows: Iterable[int]) -> "Block":
        """The block of the given rows, in that order."""
        m, planes = self.m, self.planes
        return Block(m, self.stripes, [p for r in rows for p in planes[r * m : (r + 1) * m]])

    def __getitem__(self, rows: slice) -> "Block":
        return self.take(range(self.rows)[rows])

    @classmethod
    def stack(cls, blocks: Iterable["Block"]) -> "Block":
        """The rows of `blocks`, one block after another; they share m and
        the stripe count."""
        blocks = list(blocks)
        return cls(blocks[0].m, blocks[0].stripes, [p for b in blocks for p in b.planes])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Block) and \
            (self.m, self.stripes, self.planes) == (other.m, other.stripes, other.planes)

    def __repr__(self) -> str:
        return f"Block(m={self.m}, rows={self.rows}, stripes={self.stripes})"

