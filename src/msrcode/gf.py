"""GF(2^m) arithmetic on integer-coded polynomials, plus the mod-q index ring.

Field elements are plain ints in [0, 2^m).  Addition is XOR; multiplication,
division and inversion go through log/antilog tables built once per field
from a generator of the multiplicative group -- the usual construction in
erasure-code libraries.  Bulk multiplication of a numpy array by a scalar
goes through per-coefficient product tables instead (GF2M.mul_vec).  m is
capped at 16 so a symbol always fits in two bytes of the shard format.

Row/column index arithmetic of the code lives in a separate, much simpler
structure: the ring of integers mod q (any q >= 2), provided here as
:func:`ring_sub`.
"""

from __future__ import annotations

from ._lazy import np

MAX_DEGREE = 16

# Default reduction polynomial per extension degree.  All entries are
# primitive, so x (= 2) generates the multiplicative group and the same m
# always yields the same tables.  Changing any entry breaks decodability of
# previously written shards.
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


def default_poly(m: int) -> int:
    """Return the fixed reduction polynomial for GF(2^m), 1 <= m <= 16."""
    if m not in DEFAULT_POLYS:
        raise ValueError(f"extension degree m={m} out of range 1..{MAX_DEGREE}")
    return DEFAULT_POLYS[m]


def _clmul_mod(a: int, b: int, poly: int, m: int) -> int:
    """Carry-less (polynomial) multiply of a and b, reduced mod poly."""
    hi = 1 << (m - 1)
    mask = (1 << m) - 1
    low_poly = poly & mask
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        carry = a & hi
        a = (a << 1) & mask
        if carry:
            a ^= low_poly
    return r


def _poly_mod(a: int, b: int) -> int:
    """Remainder of polynomial division a mod b over GF(2)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def is_irreducible(poly: int) -> bool:
    """Exhaustive trial-division irreducibility test over GF(2).

    Intended for degrees up to 16; a reducible polynomial of degree m has an
    irreducible factor of degree <= m/2, so dividing by every polynomial of
    degree 1..m//2 is a complete check.
    """
    m = poly.bit_length() - 1
    if m < 1:
        return False
    if m == 1:
        return True
    if poly & 1 == 0:  # x divides
        return False
    for d in range(1, m // 2 + 1):
        for low in range(1 << d):
            if _poly_mod(poly, (1 << d) | low) == 0:
                return False
    return True


class GF2M:
    """The symbol field GF(2^m), with its arithmetic tables.

    The scalar ops use the log/antilog lists built here.  mul_vec, the bulk
    kernel, multiplies by c with one gather from c's product table (the
    split tables of GF-Complete): c*x for all 2^m symbols when m <= 8, and
    for m > 8 one table for the low byte and one for the high bits, so a
    coefficient never costs more than 2*(256 + 2^(m-8)) bytes.  Each table
    is built from the log/antilog lists on first use and cached in
    `_mul_tables`, keyed by c.

    Otherwise immutable after construction; all operations are pure
    functions, so one instance can be shared freely across threads/tasks.
    Two threads may both build a missing table and both store it, but the
    tables are equal and a dict store is atomic, so either one serves.
    """

    def __init__(self, m: int, poly: int | None = None):
        if not 1 <= m <= MAX_DEGREE:
            raise ValueError(f"extension degree m={m} out of range 1..{MAX_DEGREE}")
        if poly is None:
            poly = DEFAULT_POLYS[m]
        if poly.bit_length() - 1 != m:
            raise ValueError(f"reduction polynomial {poly:#x} does not have degree {m}")
        if not is_irreducible(poly):
            raise ValueError(f"reduction polynomial {poly:#x} is reducible")
        self.m = m
        self.poly = poly
        self.order = 1 << m  # field size; multiplicative group has order-1 elements
        self._build_tables()
        self._mul_tables: dict[int, list[np.ndarray]] = {}  # c -> product tables

    def _build_tables(self) -> None:
        order = self.order
        if order == 2:  # GF(2): trivial group, generator 1
            self.generator = 1
            self._exp = [1, 1]
            self._log = [0, 0]
        else:
            for g in range(2, order):
                exp = [0] * (2 * (order - 1))
                log = [0] * order
                exp[0] = 1
                x = 1
                full_cycle = True
                for i in range(1, order - 1):
                    x = _clmul_mod(x, g, self.poly, self.m)
                    if x == 1:  # order of g divides i < order-1
                        full_cycle = False
                        break
                    exp[i] = x
                    log[x] = i
                if full_cycle:
                    assert _clmul_mod(x, g, self.poly, self.m) == 1
                    self.generator = g
                    # double the antilog table so mul() needs no modulo
                    for i in range(order - 1, 2 * (order - 1)):
                        exp[i] = exp[i - (order - 1)]
                    self._exp = exp
                    self._log = log
                    break
            else:
                raise ValueError(f"no generator found; {self.poly:#x} is not irreducible?")

    def _mul_table(self, c: int) -> list[np.ndarray]:
        """The product table of c, built on first use: c*x for every symbol
        x, or for m > 8 one table for the low byte of x and one for its high
        bits, since c*x = c*(x & 0xFF) ^ c*(x & ~0xFF)."""
        table = self._mul_tables.get(c)
        if table is None:
            exp, log, lc = self._exp, self._log, self._log[c]
            parts = [range(min(self.order, 256))]
            if self.m > 8:
                parts.append(range(0, self.order, 256))
            table = [np.array([exp[lc + log[x]] if x else 0 for x in xs], dtype=np.uint16)
                     for xs in parts]
            self._mul_tables[c] = table
        return table

    # -- scalar ops ---------------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    sub = add  # characteristic 2

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + self.order - 1]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[self.order - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def exp(self, i: int) -> int:
        """i-th power of the fixed generator."""
        return self._exp[i % (self.order - 1)] if self.order > 2 else 1

    def log(self, a: int) -> int:
        if a == 0:
            raise ValueError("log of zero is undefined")
        return self._log[a]

    def validate(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of GF(2^{self.m})")
        return a

    # -- bulk ops -----------------------------------------------------------

    def mul_vec(self, c: int, v: np.ndarray) -> np.ndarray:
        """Multiply every entry of a uint16 array by the scalar c: one
        gather from c's product table (two for m > 8).  Raises ValueError
        if an entry is not a field element."""
        if c == 0:
            return np.zeros(v.shape, dtype=np.uint16)
        if c == 1:
            return v.astype(np.uint16, copy=True)
        try:
            if self.m <= 8:
                return self._mul_table(c)[0].take(v)
            low, high = self._mul_table(c)
            return low.take(v & 0xFF) ^ high.take(v >> 8)
        except IndexError:
            raise ValueError(f"a symbol is not an element of GF(2^{self.m})") from None

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2M) and (self.m, self.poly) == (other.m, other.poly)

    def __hash__(self) -> int:
        return hash((self.m, self.poly))

    def __repr__(self) -> str:
        return f"GF2M(m={self.m}, poly={self.poly:#x})"


def ring_sub(a: int, b: int, q: int) -> int:
    """(a - b) mod q in the index ring Z_q; q need not be a prime power."""
    return (a - b) % q
