"""Existence of elements of given finite order in GL(n, Z).

The classical totient criterion: writing m = 2^a0 * p1^a1 * ... * pk^ak,
an element of order m exists in GL(n, Z) iff the sum of phi(pi^ai) over
the odd prime powers, plus phi(2^a0) when a0 >= 2, is at most n (a factor
of -1 realizes the 2-part for free when a0 = 1).  When an element exists,
a witness is assembled from companion matrices of cyclotomic polynomials
(negated to absorb a single factor 2) and its order is verified by
explicit integer powering.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..arith import factorize

IntMatrix = tuple[tuple[int, ...], ...]


def _phi_prime_power(p: int, a: int) -> int:
    return (p - 1) * p ** (a - 1)


def _companion(poly: list[int]) -> IntMatrix:
    """Companion matrix of a monic polynomial given by ascending coefficients."""
    n = len(poly) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][n - 1] = -poly[i]
        if i > 0:
            rows[i][i - 1] = 1
    return tuple(tuple(r) for r in rows)


def _cyclotomic_prime_power(p: int, a: int) -> list[int]:
    """Coefficients (ascending) of the p^a-th cyclotomic polynomial.

    Phi_{p^a}(x) = Phi_p(x^{p^(a-1)}) = sum of x^{j p^(a-1)} for j < p.
    """
    step = p ** (a - 1)
    deg = (p - 1) * step
    coeffs = [0] * (deg + 1)
    for j in range(p):
        coeffs[j * step] = 1
    return coeffs


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _mat_identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    result = _mat_identity(len(a))
    while k:
        if k & 1:
            result = _mat_mul(result, a)
        a = _mat_mul(a, a)
        k >>= 1
    return result


def matrix_order_is(a: IntMatrix, m: int) -> bool:
    """Exact order check: a^m = I and a^(m/p) != I for every prime p | m."""
    ident = _mat_identity(len(a))
    if _mat_pow(a, m) != ident:
        return False
    return all(_mat_pow(a, m // p) != ident for p in factorize(m))


def _block_diag(blocks: list[IntMatrix], n: int) -> IntMatrix:
    size = sum(len(b) for b in blocks)
    if size > n:
        raise ValueError("blocks exceed the ambient dimension")
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                rows[off + i][off + j] = x
        off += len(b)
    for i in range(off, n):
        rows[i][i] = 1
    return tuple(tuple(r) for r in rows)


class OrderWitness(NamedTuple):
    """A verified element of the requested order in GL(n, Z)."""

    n: int
    m: int
    matrix: IntMatrix


def gl_has_element_of_order(n: int, m: int, with_witness: bool = True) -> tuple[bool, Optional[OrderWitness]]:
    """Totient criterion for an order-m element of GL(n, Z), with witness.

    Monotone in n for fixed m.  The witness (when requested and the answer
    is positive) is a block-diagonal cyclotomic companion assembly whose
    order is reverified by integer powering.
    """
    if n < 1 or m < 1:
        raise ValueError("dimensions and orders must be positive")
    if m == 1:
        return True, OrderWitness(n, 1, _mat_identity(n)) if with_witness else None
    factors = factorize(m)
    a0 = factors.pop(2, 0)
    total = sum(_phi_prime_power(p, a) for p, a in factors.items())
    if a0 >= 2:
        total += _phi_prime_power(2, a0)
    if total > n:
        return False, None
    if not with_witness:
        return True, None
    blocks: list[IntMatrix] = []
    negate_first = a0 == 1
    for p, a in sorted(factors.items()):
        comp = _companion(_cyclotomic_prime_power(p, a))
        if negate_first:
            comp = tuple(tuple(-x for x in row) for row in comp)
            negate_first = False
        blocks.append(comp)
    if a0 >= 2:
        blocks.append(_companion(_cyclotomic_prime_power(2, a0)))
    if negate_first:
        # m = 2: a single -1 block
        blocks.append(((-1,),))
    witness = _block_diag(blocks, n)
    if not matrix_order_is(witness, m):
        raise AssertionError(
            f"constructed witness for order {m} in GL({n}, Z) fails verification"
        )
    return True, OrderWitness(n, m, witness)
