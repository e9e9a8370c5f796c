"""Integer arithmetic shared by every layer: primality, factoring, partitions
and the sizes of the conjugacy classes of S_n.

Factoring is trial division: group orders and field sizes are far below
where anything cleverer pays.  Primality is not, because the census
checks every DDF prime, which may be 2^61 - 1 or more.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

#: The primes up to 41, and psi_13, the least strong pseudoprime to all of
#: them as bases (Sorenson and Webster, Math. Comp. 86, 2017).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact for n < psi_13 (about 3.3e24); ValueError at or above it.

    Trial division by the primes up to 41 settles n < 43^2, and Miller-Rabin
    to those 13 bases is deterministic below psi_13.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= _PSI_13:
        raise ValueError(f"{n} is too large for the deterministic primality test")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


def symmetric_class_size(parts: tuple[int, ...]) -> int:
    """Number of permutations of cycle type ``parts``: n! / prod k^m_k m_k!."""
    denom = 1
    for k in set(parts):
        m = parts.count(k)
        denom *= k**m * math.factorial(m)
    return math.factorial(sum(parts)) // denom
