import math

import pytest

from endocert.arith import factorize, is_odd_prime_power, is_prime, partitions, prime_power


def _sieve(limit):
    flags = [False, False] + [True] * (limit - 2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(flags[p * p::p])
    return flags


def test_is_prime_agrees_with_sieve():
    flags = _sieve(10**4)
    assert [n for n in range(-5, 10**4) if is_prime(n)] == [n for n in range(10**4) if flags[n]]


def test_factorize_multiplies_back_with_primes_ascending():
    assert factorize(1) == {}
    for n in range(2, 5001):
        factors = factorize(n)
        assert math.prod(p**k for p, k in factors.items()) == n
        assert list(factors) == sorted(factors)
        assert all(is_prime(p) and k >= 1 for p, k in factors.items())


def test_prime_power_agrees_with_brute_force():
    powers = {p**k: (p, k) for p in range(2, 2000) if is_prime(p) for k in range(1, 12) if p**k < 2000}
    for q in range(-3, 2000):
        assert prime_power(q) == powers.get(q)
        assert is_odd_prime_power(q) == (q in powers and q % 2 == 1)


@pytest.mark.parametrize("n, count", [(0, 1), (1, 1), (2, 2), (5, 7), (10, 42), (20, 627)])
def test_partitions_count_and_order(n, count):
    parts = list(partitions(n))
    assert len(parts) == len(set(parts)) == count
    assert parts == sorted(parts, reverse=True)
    assert all(sum(t) == n and list(t) == sorted(t, reverse=True) for t in parts)


def test_partitions_with_largest_part():
    assert list(partitions(5, 2)) == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
