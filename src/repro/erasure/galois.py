"""GF(2^8) finite-field arithmetic.

The field is defined by the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11d), the same polynomial used by most
Reed-Solomon implementations (including the Go library the paper uses).
Multiplication and division run through precomputed log/antilog tables.
"""

from __future__ import annotations

_PRIMITIVE_POLY = 0x11D
_FIELD_SIZE = 256
_GENERATOR = 2


def _build_tables() -> tuple:
    exp = [0] * (_FIELD_SIZE * 2)  # doubled to skip mod-255 reductions
    log = [0] * _FIELD_SIZE
    x = 1
    for power in range(_FIELD_SIZE - 1):
        exp[power] = x
        log[x] = power
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    for power in range(_FIELD_SIZE - 1, _FIELD_SIZE * 2):
        exp[power] = exp[power - (_FIELD_SIZE - 1)]
    return exp, log


_EXP, _LOG = _build_tables()


class GF256:
    """Namespace of GF(2^8) operations on Python ints in [0, 255]."""

    ORDER = _FIELD_SIZE
    exp_table = _EXP
    log_table = _LOG

    @staticmethod
    def add(a: int, b: int) -> int:
        """Addition is XOR in characteristic 2."""
        return a ^ b

    # Subtraction equals addition in GF(2^8).
    sub = add

    @staticmethod
    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]

    @staticmethod
    def inverse(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(256)")
        return _EXP[(_FIELD_SIZE - 1) - _LOG[a]]

    @staticmethod
    def pow(a: int, exponent: int) -> int:
        if exponent == 0:
            return 1
        if a == 0:
            return 0
        log_result = (_LOG[a] * exponent) % (_FIELD_SIZE - 1)
        return _EXP[log_result]

    @staticmethod
    def mul_table(coefficient: int) -> bytes:
        """The multiplication table for a fixed coefficient.

        Returned as an immutable 256-``bytes`` translation table:
        ``table[v] == mul(coefficient, v)``, directly usable by
        ``bytes.translate`` and shared safely from the cache.
        """
        table = _MUL_TABLE_CACHE.get(coefficient)
        if table is None:
            table = bytes(
                GF256.mul(coefficient, value) for value in range(_FIELD_SIZE)
            )
            _MUL_TABLE_CACHE[coefficient] = table
        return table


_MUL_TABLE_CACHE: dict = {}
