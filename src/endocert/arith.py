"""Integer arithmetic shared by every layer: primality, factoring, partitions.

All by trial division; the engine's integers are group orders, field sizes
and census primes, far below where anything cleverer pays.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional


def is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def factorize(n: int) -> dict[int, int]:
    """{p: exponent} for n >= 1, primes ascending; {} for n <= 1."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, k) with q = p^k and k >= 1, or None."""
    factors = factorize(q)
    return next(iter(factors.items())) if len(factors) == 1 else None


def is_odd_prime_power(q: int) -> bool:
    pk = prime_power(q)
    return pk is not None and pk[0] != 2


def partitions(n: int, largest: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts at most ``largest``, each descending.

    Yielded in reverse-lexicographic order: (n,) first, (1, ..., 1) last.
    """
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest
