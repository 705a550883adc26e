"""Field arithmetic: the fixed primitive polynomials, axioms, and
cross-checks against a schoolbook carry-less multiply oracle."""

import random

import pytest

from msrcode.gf import DEFAULT_POLYS, GF2M, Block


def slow_mul(a: int, b: int, poly: int, m: int) -> int:
    """Oracle: full polynomial product by shift/xor, then long division."""
    prod = 0
    shift = 0
    while b:
        if b & 1:
            prod ^= a << shift
        b >>= 1
        shift += 1
    while prod.bit_length() > m:
        prod ^= poly << (prod.bit_length() - poly.bit_length())
    return prod


# -- polynomial table ----------------------------------------------------------


def test_default_poly_m1_is_x_plus_1():
    assert DEFAULT_POLYS[1] == GF2M(1).poly == 0b11


def test_default_poly_m4_is_x4_x_1():
    assert DEFAULT_POLYS[4] == GF2M(4).poly == 0b10011


def test_default_poly_m4_irreducible_by_trial_division():
    poly = 0b10011
    # no roots in GF(2): p(0) = const term, p(1) = parity of coefficients
    assert poly & 1
    assert bin(poly).count("1") % 2 == 1
    # no factor of degree 1 or 2
    for d in (0b10, 0b11, 0b100, 0b101, 0b110, 0b111):
        rem = poly
        while rem.bit_length() >= d.bit_length():
            rem ^= d << (rem.bit_length() - d.bit_length())
        assert rem != 0


def test_degree_out_of_range_rejected():
    with pytest.raises(ValueError):
        GF2M(0)
    with pytest.raises(ValueError):
        GF2M(17)


def test_tables_are_the_powers_of_x():
    # exp steps by x (= 2), checked against the oracle, and x first
    # returns to 1 after exactly 2^m - 1 steps: each DEFAULT_POLYS entry
    # is primitive, and log inverts exp
    for m in range(1, 17):
        gf, span = GF2M(m), (1 << m) - 1
        assert gf.poly == DEFAULT_POLYS[m] and gf.poly.bit_length() - 1 == m
        assert len(gf._exp) == 2 * span and gf._exp[:span] == gf._exp[span:]
        for i in range(span):
            assert gf._exp[i + 1] == slow_mul(gf._exp[i], 2, gf.poly, m)
        assert gf._exp[0] == 1 and 1 not in gf._exp[1:span]
        assert sorted(gf._exp[:span]) == list(range(1, span + 1))
        assert all(gf._log[gf._exp[i]] == i for i in range(span))


def test_reducible_poly_rejected(monkeypatch):
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2: x never returns to 1
    monkeypatch.setitem(DEFAULT_POLYS, 4, 0b10101)
    with pytest.raises(ValueError, match="not primitive"):
        GF2M(4)


def test_non_primitive_poly_rejected(monkeypatch):
    # x^4+x^3+x^2+x+1 is irreducible, but x has order 5, not 15
    monkeypatch.setitem(DEFAULT_POLYS, 4, 0b11111)
    with pytest.raises(ValueError, match="not primitive"):
        GF2M(4)


# -- operation examples ----------------------------------------------------------


def test_mul_identities():
    gf = GF2M(4)
    assert gf.mul(1, 2) == 2  # 1 * x = x
    assert gf.mul(0, 11) == 0
    assert gf.mul(0b0010, 0b1001) == 0b0001


def test_mul_matches_oracle_exhaustive_m4():
    gf = GF2M(4)
    for a in range(16):
        for b in range(16):
            assert gf.mul(a, b) == slow_mul(a, b, gf.poly, 4)


def test_mul_matches_oracle_random_m8_m16():
    rng = random.Random(7)
    for m in (8, 16):
        gf = GF2M(m)
        for _ in range(300):
            a = rng.randrange(gf.order)
            b = rng.randrange(gf.order)
            assert gf.mul(a, b) == slow_mul(a, b, gf.poly, m)


def test_inverse():
    gf = GF2M(4)
    assert gf.inv(1) == 1
    assert gf.inv(0b0010) == 0b1001
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


# -- field axioms -----------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11, 16])
def test_field_axioms_random_triples(m):
    gf = GF2M(m)
    rng = random.Random(m)
    for _ in range(200):
        a, b, c = (rng.randrange(gf.order) for _ in range(3))
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)


@pytest.mark.parametrize("m", range(1, 9))
def test_inverses_exhaustive_up_to_m8(m):
    gf = GF2M(m)
    for a in range(1, gf.order):
        assert gf.mul(a, gf.inv(a)) == 1


@pytest.mark.parametrize("m", range(1, 9))
def test_multiplicative_group_order(m):
    gf = GF2M(m)
    for a in range(1, gf.order):
        power = a
        for _ in range(gf.order - 2):
            power = gf.mul(power, a)
        assert power == 1  # a^(2^m - 1)


def test_generator_powers_cover_all_nonzero():
    gf = GF2M(5)
    seen = {gf.exp(i) for i in range(gf.order - 1)}
    assert seen == set(range(1, gf.order))


def test_validate():
    gf = GF2M(3)
    assert gf.validate(7) == 7
    with pytest.raises(ValueError):
        gf.validate(8)
    with pytest.raises(ValueError):
        gf.validate(-1)


# -- block multiply ------------------------------------------------------------------


def block_of(rows, m):
    """Reference: the Block of `rows` (lists of symbols, one per stripe),
    bit by bit: bit s of plane r*m + b is bit b of rows[r][s]."""
    return Block(m, len(rows[0]), [sum((v >> b & 1) << s for s, v in enumerate(row))
                                   for row in rows for b in range(m)])


def symbols_of(block):
    """Reference: a Block as a list of rows of symbols."""
    m = block.m
    return [[sum((block.planes[r * m + b] >> s & 1) << b for b in range(m))
             for s in range(block.stripes)] for r in range(len(block.planes) // m)]


@pytest.mark.parametrize("m", [1, 4, 7, 16])
def test_mul_vec_matches_scalar(m):
    gf = GF2M(m)
    rng = random.Random(m)
    v = [rng.randrange(gf.order) for _ in range(257)]
    for c in [0, 1] + [rng.randrange(gf.order) for _ in range(6)]:
        got = gf.mul_vec(c, block_of([v], m))
        assert (got.m, got.rows, got.stripes) == (m, 1, 257)
        assert symbols_of(got) == [[gf.mul(c, a) for a in v]]


@pytest.mark.parametrize("m", range(1, 9))
def test_mul_vec_is_mul_for_every_coefficient_and_symbol(m):
    gf = GF2M(m)
    v = block_of([list(range(gf.order))], m)
    for c in range(gf.order):
        assert symbols_of(gf.mul_vec(c, v)) == [[gf.mul(c, x) for x in range(gf.order)]]


def test_mul_vec_m16_every_symbol_for_sampled_coefficients():
    gf = GF2M(16)
    v = block_of([list(range(gf.order))], 16)
    sampled = [0, 1, 2, 0xFF, 0x100, 0x1234, 0xFF00, gf.order - 1]
    for c in sampled:
        assert symbols_of(gf.mul_vec(c, v)) == [[gf.mul(c, x) for x in range(gf.order)]]


def test_mul_vec_keeps_the_block_shape():
    gf = GF2M(13)
    rng = random.Random(13)
    rows = [[rng.randrange(gf.order) for _ in range(7)] for _ in range(5)]
    got = gf.mul_vec(77, block_of(rows, 13))
    assert (got.m, got.rows, got.stripes) == (13, 5, 7)
    assert symbols_of(got) == [[gf.mul(77, x) for x in row] for row in rows]


@pytest.mark.parametrize("m", [3, 8, 16])
def test_mul_vec_product_tables_stay_within_bound(m):
    # the block multiply builds no product table: what a coefficient costs
    # to keep is its bit matrix, at most m*m pairs, built once through
    # mul_vec and only for the coefficients asked
    gf = GF2M(m)
    coeffs = {0, 1, 2, 3, gf.order - 1, gf.order // 2 + 1}
    for c in [*coeffs, 3]:
        gf.bit_pairs(c)
    assert set(gf._bit_pairs) == coeffs
    assert all(len(pairs) <= m * m for pairs in gf._bit_pairs.values())
    assert gf._bit_pairs[0] == () and gf._bit_pairs[1] == tuple((i, i) for i in range(m))


@pytest.mark.parametrize("m", [3, 8, 11])
def test_mul_vec_out_of_field_symbol_is_value_error(m):
    gf = GF2M(m)
    # 2^m is a symbol of GF(2^(m+1)), not of GF(2^m)
    with pytest.raises(ValueError, match="not an element of GF"):
        gf.mul_vec(3, block_of([[1, gf.order]], m + 1))
    with pytest.raises(ValueError, match="not an element of GF"):
        gf.mul_vec(gf.order, block_of([[1, 2]], m))


def test_equality_and_hash():
    assert GF2M(4) == GF2M(4)
    assert GF2M(4) != GF2M(5)
    assert hash(GF2M(4)) == hash(GF2M(4))
