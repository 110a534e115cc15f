"""Field arithmetic: construction, the axioms, and the modulus table."""

import itertools
import random

import numpy as np
import pytest

from multipool import gf
from multipool.errors import DomainError, UnsupportedFieldError

from helpers import coeffs_to_index, independent_irreducibility, index_to_coeffs, poly_mul_mod

EXTENSION_ORDERS = sorted(p ** a for (p, a) in gf._CONWAY)
PRIME_ORDERS = sorted(q for q in gf.SUPPORTED_ORDERS if gf.field_for_order(q).a == 1)


def test_supported_orders_are_primes_below_64_plus_listed_powers():
    assert set(PRIME_ORDERS) == {
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    }
    assert EXTENSION_ORDERS == [4, 8, 9, 16, 25, 27, 32, 49, 64]


@pytest.mark.parametrize("q", [6, 10, 12, 15, 100])
def test_non_prime_powers_are_rejected(q):
    with pytest.raises(UnsupportedFieldError):
        gf.field_for_order(q)


@pytest.mark.parametrize("q", [67, 121, 128])
def test_prime_powers_outside_the_table_are_rejected(q):
    with pytest.raises(UnsupportedFieldError):
        gf.field_for_order(q)


def test_prime_power_factoring():
    assert (gf.Field(49).p, gf.Field(49).a) == (7, 2)
    assert (gf.Field(31).p, gf.Field(31).a) == (31, 1)
    assert (gf.Field(64).p, gf.Field(64).a) == (2, 6)
    for q in gf.SUPPORTED_ORDERS:
        f = gf.field_for_order(q)
        assert f.q == q and f.p ** f.a == q and gf._is_prime(f.p)
    with pytest.raises(UnsupportedFieldError):
        gf.Field(6)
    with pytest.raises(UnsupportedFieldError):
        gf.Field(1)


def test_prime_field_arithmetic_is_mod_p():
    f = gf.field_for_order(7)
    assert f.add(3, 5) == 1
    assert f.mul(3, 5) == 1
    assert f.add(0, 6) == 6
    assert f.mul(1, 6) == 6


def test_gf8_hand_products():
    # With modulus x^3 + x + 1: (x+1) + (x^2+1) = x^2 + x, x * x = x^2,
    # and (x+1)(x^2+1) = x^3 + x^2 + x + 1 = x^2 (using x^3 = x + 1).
    f = gf.field_for_order(8)
    assert f.modulus == (1, 1, 0, 1)
    assert f.add(3, 5) == 6
    assert f.mul(2, 2) == 4
    assert f.mul(3, 5) == 4


def test_element_index_out_of_range_raises():
    f = gf.field_for_order(9)
    with pytest.raises(DomainError):
        f.add(0, 9)
    with pytest.raises(DomainError):
        f.mul(-1, 2)


@pytest.mark.parametrize("q", EXTENSION_ORDERS)
def test_conway_table_is_irreducible_by_independent_oracle(q):
    f = gf.field_for_order(q)
    assert independent_irreducibility(f.modulus, f.p)


@pytest.mark.parametrize("q", sorted(gf.SUPPORTED_ORDERS))
def test_verify_field_passes_for_every_supported_order(q):
    # The axioms on the tables themselves, every pair and every triple.
    f = gf.field_for_order(q)
    add, mul = f.add_table, f.mul_table
    x, y, z = np.ix_(range(q), range(q), range(q))
    assert np.array_equal(add[:, 0], np.arange(q)) and np.array_equal(mul[:, 1], np.arange(q))
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    assert (add == 0).any(axis=1).all() and (mul[1:] == 1).any(axis=1).all()
    assert np.array_equal(add[add[x, y], z], add[x, add[y, z]])
    assert np.array_equal(mul[mul[x, y], z], mul[x, mul[y, z]])
    assert np.array_equal(mul[x, add[y, z]], add[mul[x, y], mul[x, z]])


def test_verify_field_reports_reducible_modulus():
    # The oracle behind the Conway check must see a reducible modulus:
    # x^2 + 1 = (x + 1)^2 over F_2, x^4 + x^2 + 1 = (x^2 + x + 1)^2 over
    # F_2 (no root), and x^2 + 2 = (x + 1)(x + 2) over F_3.
    assert not independent_irreducibility((1, 0, 1), 2)
    assert not independent_irreducibility((1, 0, 1, 0, 1), 2)
    assert not independent_irreducibility((2, 0, 1), 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustively(q):
    f = gf.field_for_order(q)
    elements = range(q)
    for x in elements:
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
        assert any(f.add(x, y) == 0 for y in elements)
        if x != 0:
            assert any(f.mul(x, y) == 1 for y in elements)
    for x, y in itertools.product(elements, repeat=2):
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
    for x, y, z in itertools.product(elements, repeat=3):
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("q", [25, 27, 32, 49, 64])
def test_field_axioms_on_sampled_triples(q):
    f = gf.field_for_order(q)
    rng = random.Random(20240 + q)
    for x in range(q):
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
    for _ in range(3000):
        x, y, z = (rng.randrange(q) for _ in range(3))
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("q", sorted(gf.SUPPORTED_ORDERS))
def test_coefficient_bijection_round_trips(q):
    f = gf.field_for_order(q)
    seen = set()
    for x in range(q):
        coeffs = index_to_coeffs(x, f.p, f.a)
        assert len(coeffs) == f.a
        assert all(0 <= c < f.p for c in coeffs)
        assert coeffs_to_index(coeffs, f.p) == x
        seen.add(coeffs)
    assert len(seen) == q


@pytest.mark.parametrize("p", PRIME_ORDERS)
def test_prime_fast_path_matches_polynomial_arithmetic(p):
    f = gf.field_for_order(p)
    # The polynomial route with modulus x: multiply degree-0 residues and
    # reduce, mirroring what the extension-field tables do.
    for x, y in itertools.product(range(p), repeat=2):
        poly_sum = (index_to_coeffs(x, p, 1)[0] + index_to_coeffs(y, p, 1)[0]) % p
        poly_product = poly_mul_mod((x,), (y,), f.modulus, p)
        assert f.add(x, y) == poly_sum
        assert f.mul(x, y) == (poly_product[0] if poly_product else 0)


@pytest.mark.parametrize("q", EXTENSION_ORDERS)
def test_tables_match_polynomial_arithmetic(q):
    # The scalar route: add digit vectors mod p, multiply residue
    # polynomials and reduce by the modulus, one pair at a time.
    f = gf.field_for_order(q)
    for x, y in itertools.product(range(q), repeat=2):
        cx, cy = index_to_coeffs(x, f.p, f.a), index_to_coeffs(y, f.p, f.a)
        total = tuple((u + v) % f.p for u, v in zip(cx, cy))
        product = poly_mul_mod(cx, cy, f.modulus, f.p)
        assert f.add(x, y) == coeffs_to_index(total, f.p)
        assert f.mul(x, y) == coeffs_to_index(product, f.p)


def test_neg_and_inv_consistency():
    # Every element has one negative, every nonzero element one inverse.
    f = gf.field_for_order(27)
    assert ((f.add_table == 0).sum(axis=1) == 1).all()
    assert ((f.mul_table == 1).sum(axis=1) == [0] + [1] * 26).all()
