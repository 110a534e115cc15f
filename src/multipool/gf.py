"""Arithmetic in small Galois fields GF(p^a).

Elements are plain integers in ``[0, q)``.  The integer encodes the
coefficients of the residue polynomial in base p: the element
``c_0 + c_1 x + ... + c_{a-1} x^{a-1}`` has index
``c_0 + c_1 p + ... + c_{a-1} p^{a-1}``, i.e. the polynomial evaluated at
p over the integers.  For prime fields (a = 1) the index is the residue
itself and the modulus is x, so arithmetic is plain modular arithmetic.

Extension fields reduce products modulo a fixed irreducible polynomial.
The moduli are Conway polynomials, one per supported prime power:

    GF(4)  : x^2 + x + 1
    GF(8)  : x^3 + x + 1
    GF(9)  : x^2 + 2x + 2
    GF(16) : x^4 + x + 1
    GF(25) : x^2 + 4x + 2
    GF(27) : x^3 + 2x + 1
    GF(32) : x^5 + x^2 + 1
    GF(49) : x^2 + 6x + 3
    GF(64) : x^6 + x^4 + x^3 + x + 1

Any irreducible modulus would give an isomorphic field; fixing one table
keeps every structure built on top of these fields reproducible byte for
byte.  ``test_conway_table_is_irreducible_by_independent_oracle`` in
``tests/test_gf.py`` re-checks each table entry with an irreducibility
oracle that shares no code with this module, so a transcription error
cannot survive the test suite.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UnsupportedFieldError, require_integer


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


# Coefficient tuples are little endian: entry i is the coefficient of x^i.
_CONWAY: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}

SUPPORTED_ORDERS = frozenset(p for p in range(2, 65) if _is_prime(p)) | frozenset(
    p ** a for (p, a) in _CONWAY
)


class Field:
    """GF(p^a) for a supported order, operating on integer indices.

    Every field precomputes its full addition and multiplication tables
    (at most 64 x 64 entries), so per-operation cost is a lookup; a prime
    field is the case a = 1 with modulus x.  ``add_table`` and
    ``mul_table`` are those tables as read-only (q, q) numpy arrays
    indexed ``[x, y]``, for whole-array arithmetic such as
    ``add_table[mul_table[s, x], b]``; indexing them does no range check
    beyond numpy's own, while the scalar methods check their arguments.
    """

    def __init__(self, q: int):
        if q not in SUPPORTED_ORDERS:
            raise UnsupportedFieldError(
                f"unsupported field order {q}; supported orders are primes up to 64 "
                f"and the prime powers {sorted(p ** a for (p, a) in _CONWAY)}"
            )
        self.q = q
        # Every supported order is a prime power, so its smallest divisor
        # is the characteristic.
        self.p = p = next(d for d in range(2, q + 1) if q % d == 0)
        self.a = a = next(k for k in range(1, q) if p ** k == q)
        self.modulus = (0, 1) if a == 1 else _CONWAY[(p, a)]
        # Base-p digit vectors of every element, little endian: (q, a).
        weights = p ** np.arange(a)
        digits = np.arange(q)[:, None] // weights % p
        x, y = digits[:, None, :], digits[None, :, :]
        add = ((x + y) % p) @ weights
        # Full polynomial product over the integers, then reduce each
        # coefficient of degree k >= a with x^a = -(modulus without x^a);
        # every step is linear, so one mod p at the end is enough.
        product = np.zeros((self.q, self.q, 2 * a - 1), dtype=np.intp)
        for i in range(a):
            product[:, :, i : i + a] += x[:, :, i : i + 1] * y
        low = np.array(self.modulus[:-1], dtype=np.intp)
        for k in range(2 * a - 2, a - 1, -1):
            product[:, :, k - a : k] -= product[:, :, k : k + 1] * low
        mul = (product[:, :, :a] % p) @ weights
        self.add_table = _frozen(add)
        self.mul_table = _frozen(mul)

    def _check(self, x: int) -> int:
        return require_integer(f"GF({self.q}) element index", x, 0, self.q - 1)

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[self._check(x), self._check(y)])

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[self._check(x), self._check(y)])

    def __repr__(self) -> str:
        return f"Field(GF({self.q}))"


def _frozen(table: np.ndarray) -> np.ndarray:
    table = table.astype(np.intp)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def field_for_order(q: int) -> Field:
    """The canonical GF(q) for a supported order (cached, immutable)."""
    return Field(q)
