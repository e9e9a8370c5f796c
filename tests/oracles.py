"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the production code paths it checks:
plain closure enumeration instead of stabilizer chains, dense scalar
elimination instead of bit-packed rows, exhaustive matrix enumeration
instead of Sylvester kernels, Fraction-based Euclid instead of the
subresultant gcd, and a square-and-multiply ladder for every x^(p^d)
instead of the Frobenius matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def closure_order(degree, generators, limit=10**6):
    """Group order by breadth-first closure over raw image tuples."""
    gens = [tuple(g) for g in generators]
    ident = tuple(range(degree))
    seen = {ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in seen:
                assert len(seen) <= limit, "oracle closure exceeded limit"
                seen.add(y)
                queue.append(y)
    return len(seen)


def dense_rref_mod_p(entries, p):
    """Scalar reduced row echelon form; returns (rows, rank, pivots)."""
    rows = [list(r) for r in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, r, pivots


def all_4x4_gf2_matrices():
    for code in range(1 << 16):
        yield tuple((code >> (4 * i)) & 15 for i in range(4))


def gf2_matmul_packed(a_rows, b_rows, n):
    out = []
    for row in a_rows:
        acc = 0
        rest = row
        while rest:
            k = (rest & -rest).bit_length() - 1
            acc ^= b_rows[k]
            rest &= rest - 1
        out.append(acc)
    return tuple(out)


def brute_force_commutant_4x4(gen_rows_list):
    """All 4x4 GF(2) matrices commuting with every generator (packed rows)."""
    out = []
    for cand in all_4x4_gf2_matrices():
        if all(
            gf2_matmul_packed(cand, g, 4) == gf2_matmul_packed(g, cand, 4)
            for g in gen_rows_list
        ):
            out.append(cand)
    return out


def rational_poly_gcd_degree(f_coeffs, g_coeffs):
    """Degree of gcd over Q via plain Fraction Euclid (monic remainders)."""

    def trim(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return c

    a = [Fraction(x) for x in trim(f_coeffs)]
    b = [Fraction(x) for x in trim(g_coeffs)]
    while b:
        # a mod b
        a = list(a)
        while len(a) >= len(b) and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            c = a[-1] / b[-1]
            off = len(a) - len(b)
            for k in range(len(b)):
                a[off + k] -= c * b[k]
            a.pop()
        a = [x for x in a]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) - 1


def subalgebra_elements(basis_rows_list, dim_ambient):
    """All elements of the span of packed-row basis matrices over GF(2)."""
    out = set()
    for coeffs in product((0, 1), repeat=len(basis_rows_list)):
        acc = tuple(0 for _ in range(dim_ambient))
        for c, rows in zip(coeffs, basis_rows_list):
            if c:
                acc = tuple(x ^ y for x, y in zip(acc, rows))
        out.add(acc)
    return out


def is_invertible_gf2(rows, n):
    work = list(rows)
    rank = 0
    for col in range(n):
        bit = 1 << col
        piv = next((i for i in range(rank, n) if work[i] & bit), None)
        if piv is None:
            return False
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(n):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
    return True


def classify_commutative_gf2(elements, n):
    """Brute-force classification of a finite commutative matrix algebra.

    Returns (is_field, nilpotent_count, idempotent_count) over packed-row
    elements of M_n(F_2).
    """

    def matmul(a, b):
        return gf2_matmul_packed(a, b, n)

    zero = tuple(0 for _ in range(n))
    nilpotent = 0
    idempotent = 0
    field = True
    for x in elements:
        p = x
        for _ in range(n):
            p = matmul(p, x)
        # p = x^(n+1); x nilpotent iff x^n = 0 iff x^(n+1) = 0 for n x n
        if p == zero:
            nilpotent += 1
        if matmul(x, x) == x:
            idempotent += 1
        if x != zero and not is_invertible_gf2(x, n):
            field = False
    return field, nilpotent, idempotent


def _gfp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_mul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _gfp_trim([c % p for c in out])


def _gfp_divmod(a, b, p):
    """Schoolbook long division of a by b (ascending coefficients) mod p."""
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1] * inv % p
        quo[shift] = c
        for k, y in enumerate(b):
            rem[shift + k] = (rem[shift + k] - c * y) % p
    return _gfp_trim(quo), _gfp_trim(rem[: len(b) - 1])


def _gfp_gcd(a, b, p):
    while b:
        a, b = b, _gfp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _gfp_powmod(base, e, mod, p):
    result, base = [1], _gfp_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _gfp_divmod(_gfp_mul(result, base, p), mod, p)[1]
        base = _gfp_divmod(_gfp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def ddf_pattern_mod_p(coeffs, p):
    """Irreducible-factor degrees of an integer polynomial mod an odd prime p.

    ``coeffs`` ascend and end in a nonzero leading coefficient.  Returns the
    degrees in descending order, or None when p divides the leading
    coefficient or f mod p has a repeated factor.  Distinct-degree
    factorization with a fresh square-and-multiply ladder at every step:
    h = h^p mod work, then the degree-d factors are gcd(work, h - x).  Once
    2d exceeds the degree of work, what is left is irreducible.
    """
    f = _gfp_trim([c % p for c in coeffs])
    if len(f) != len(coeffs):
        return None
    deriv = _gfp_trim([i * c % p for i, c in enumerate(f)][1:])
    if len(_gfp_gcd(f, deriv, p)) > 1:
        return None
    degrees = []
    work, h, d = f, [0, 1], 0
    while len(work) > 1:
        d += 1
        if 2 * d > len(work) - 1:
            degrees.append(len(work) - 1)
            break
        h = _gfp_powmod(h, p, work, p)
        diff = h + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _gfp_gcd(work, _gfp_trim(diff), p)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            work = _gfp_divmod(work, g, p)[0]
            h = _gfp_divmod(h, work, p)[1]
    return tuple(sorted(degrees, reverse=True))
