"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the production code paths it checks:
plain closure enumeration instead of stabilizer chains, the stabilizer
chain as first written (a representative inverted on every sift step, the
generator ids of a level rescanned on every sweep) instead of the stored
inverse transversals and per-level bookkeeping, dense scalar
elimination instead of bit-packed rows, exhaustive matrix enumeration and
the Sylvester kernel in d^2 unknowns instead of spinning, the action
backtrack alone instead of the index-search ladder, Fraction-based Euclid
and a Fraction determinant of the Sylvester matrix instead of the
subresultant discriminant, a square-and-multiply ladder, a gcd(f, f') mod
p for every prime and schoolbook arithmetic on coefficient lists, each
entry reduced mod p, instead of the Frobenius matrix, the blocked gcd, the
discriminant and packed integers with slot-parallel Barrett reduction and
Barrett division modulo f, a walk over all of Sym(r) filtered by order
instead of the cycle-by-cycle enumeration of the permutations whose order
divides d, and every candidate's full cycle-type distribution instead of
the Lagrange refutation in `identify`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

from endocert import polygal
from endocert.fflin import FSubalgebra, MatF, kernel
from endocert.permgroup import subsearch


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


def cycle_type(perm):
    """Cycle lengths of a Perm, fixed points included, descending, from its cycles."""
    lengths = [len(c) for c in perm.cycles()]
    lengths += [1] * (perm.degree - sum(lengths))
    return tuple(sorted(lengths, reverse=True))


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


def matrix_entries(m):
    """The 0/1 entries of a packed-row matrix as a list of row lists."""
    return [[(row >> j) & 1 for j in range(m.ncols)] for row in m.rows]


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


def sylvester_centralizer(mats):
    """The commutant as the kernel of the stacked Sylvester system.

    d^2 unknowns, the entries of X (column-major: X[r, c] is bit c*d + r),
    and d^2 rows per matrix.
    """
    d = mats[0].nrows
    rows = []
    for a in mats:
        ar = a.rows
        for i in range(d):
            for j in range(d):
                # (XA - AX)[i][j] = sum_k X[i,k] A[k,j] - A[i,k] X[k,j]
                row = 0
                for k in range(d):
                    row ^= ((ar[k] >> j) & 1) << (k * d + i)
                    row ^= ((ar[i] >> k) & 1) << (j * d + k)
                rows.append(row)
    return FSubalgebra(d, kernel(MatF(len(rows), d * d, tuple(rows))))


def backtrack_has_index(group, r):
    """Whether G has a subgroup of index r <= 8: Lagrange, then the backtrack.

    Without the normal-subgroup descent, so it checks that rule independently.
    """
    assert r <= subsearch.BACKTRACK_MAX_INDEX
    if group.order() % r:
        return False
    return subsearch._homomorphism_search(group, r) is not None


def sym_with_orders(r):
    """Every permutation of range(r) as an image tuple, in lexicographic
    order, with its order: the lcm of its cycle lengths, each found by
    walking the cycle.  Filtering this list is the enumeration of Sym(r) that
    ``subsearch._perms_of_order_dividing`` replaced."""
    out = []
    for images in permutations(range(r)):
        order, seen = 1, set()
        for start in range(r):
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x, length = images[x], length + 1
            order = math.lcm(order, max(length, 1))
        out.append((images, order))
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


def sylvester_discriminant(coeffs):
    """Discriminant of an integer polynomial of degree n >= 1 (ascending
    coefficients): (-1)^(n(n-1)/2) Res(f, f')/lc(f), the resultant as the
    determinant of the Sylvester matrix by Fraction elimination."""
    f = list(coeffs)
    g = [i * c for i, c in enumerate(f)][1:]
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(m + n):
        pivot = next((r for r in range(col, m + n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, m + n):
            q = a[r][col] / a[col][col]
            a[r] = [x - q * y for x, y in zip(a[r], a[col])]
    disc = (-1) ** (m * (m - 1) // 2) * det / f[-1]
    assert disc.denominator == 1
    return int(disc)


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


def enumerating_identify(sample, candidates, distribution):
    """`identify` without its refutation: each candidate's whole distribution.

    ``distribution`` maps a candidate group to its exact cycle-type
    distribution.  A candidate whose distribution misses an observed pattern
    gets chi-square inf and confidence 0; any other is scored by the
    chi-square tail of the observed counts.  Returns one tuple (name,
    matched, confidence, support_contained, chi_square) per candidate, in
    the order `identify` sorts its hypotheses.
    """
    rows = []
    for cand in candidates:
        dist = distribution(cand)
        contained = set(sample.counts) <= set(dist)
        chi, conf = math.inf, 0.0
        if contained:
            chi = sum(
                (sample.counts.get(t, 0) - float(prob) * sample.sampled) ** 2
                / (float(prob) * sample.sampled)
                for t, prob in sorted(dist.items())
            )
            conf = polygal._chi_square_tail(chi, max(len(dist) - 1, 1))
        matched = contained and conf >= polygal.MATCH_THRESHOLD
        rows.append((cand.name, matched, conf, contained, chi))
    return sorted(rows, key=lambda row: (-row[2], row[0]))


class _ReferenceLevel:
    def __init__(self, point, degree):
        self.point = point
        self.transversal = {point: tuple(range(degree))}
        self.orbit = [point]
        self.done_pairs = set()


class _ReferenceChain:
    """The deterministic Schreier-Sims construction as first written.

    Each (orbit point, generator) Schreier pair is sifted once, deepest
    dirty level first; orbits are re-walked from their first point under
    every generator of the level after each new strong generator.
    """

    def __init__(self, degree):
        self.degree = degree
        self.levels = [_ReferenceLevel(p, degree) for p in range(degree)]
        self._strong = []

    def add_generator(self, g):
        residue, idx = self._sift(tuple(g), 0)
        if _ref_is_id(residue):
            return False
        self._strong.append((residue, idx))
        self._process_pending()
        return True

    def _sift(self, g, start):
        for idx in range(start, len(self.levels)):
            level = self.levels[idx]
            im = g[level.point]
            if im == level.point:
                continue
            rep = level.transversal.get(im)
            if rep is None:
                return g, idx
            g = _ref_compose(_ref_invert(rep), g)
        return g, len(self.levels)

    def _level_gen_ids(self, idx):
        return [k for k, (_, home) in enumerate(self._strong) if home >= idx]

    def _extend_orbit(self, idx):
        level = self.levels[idx]
        gens = [self._strong[k][0] for k in self._level_gen_ids(idx)]
        if not gens:
            return
        frontier = 0
        while frontier < len(level.orbit):
            delta = level.orbit[frontier]
            rep = level.transversal[delta]
            for g in gens:
                gamma = g[delta]
                if gamma not in level.transversal:
                    level.transversal[gamma] = _ref_compose(g, rep)
                    level.orbit.append(gamma)
            frontier += 1

    def _process_pending(self):
        while True:
            dirty = None
            for idx in range(len(self.levels) - 1, -1, -1):
                self._extend_orbit(idx)
                level = self.levels[idx]
                gen_ids = self._level_gen_ids(idx)
                pending = [
                    (pos, k)
                    for pos in range(len(level.orbit))
                    for k in gen_ids
                    if (pos, k) not in level.done_pairs
                ]
                if pending:
                    dirty = (idx, pending)
                    break
            if dirty is None:
                return
            idx, pending = dirty
            level = self.levels[idx]
            for pos, k in pending:
                delta = level.orbit[pos]
                g = self._strong[k][0]
                rep = level.transversal[delta]
                rep_im = level.transversal.get(g[delta])
                if rep_im is None:
                    continue
                schreier = _ref_compose(_ref_invert(rep_im), _ref_compose(g, rep))
                level.done_pairs.add((pos, k))
                if _ref_is_id(schreier):
                    continue
                residue, stop = self._sift(schreier, idx + 1)
                if not _ref_is_id(residue):
                    self._strong.append((residue, stop))
                    break


def _ref_compose(p, q):
    return tuple(p[i] for i in q)


def _ref_invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _ref_is_id(t):
    return all(i == j for i, j in enumerate(t))


def reference_chain(degree, gens):
    """Stabilizer chain on the default base, the generators added in order.

    The result has ``_strong`` (each strong generator with its home level)
    and ``levels`` (each with ``orbit`` and ``transversal``) in the layout
    of :class:`endocert.permgroup.chain.StabilizerChain`.
    """
    chain = _ReferenceChain(degree)
    for g in gens:
        chain.add_generator(g)
    return chain
