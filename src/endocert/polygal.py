"""From an integer polynomial to a Galois-group hypothesis.

Pipeline: the discriminant (subresultant PRS over Z, once per
polynomial), distinct-degree factorization of the reductions mod p over a
deterministic stream of odd primes, a census of the resulting degree
partitions (Frobenius cycle types), and a goodness-of-fit match of the
census against the exact cycle-type distributions of candidate groups.

The discriminant decides squarefreeness over Q (disc != 0) and at every
prime not dividing the leading coefficient (p does not divide disc), so no
prime pays for a gcd(f, f').  The distinct-degree factorization computes
x^p mod f once per prime and each further x^(p^d) with the Frobenius
matrix, and splits f by one bisection over factor-degree ranges, one gcd
with a product of the x^(p^d) - x per split.  It runs entirely on packed
polynomials mod p, one Python integer each in byte-sized slots: Barrett
reduction mod p of all coefficients at once, Barrett division modulo f, and
gcds and exact divisions that never loop over coefficients.

Identification is evidence, never proof: matches carry a confidence below
1 and downstream verdicts stay flagged as conditional on the group
assignment.

``IntPoly`` normalises in ``__init__`` and refuses assignment; the census
and hypothesis records are plain classes.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .arith import is_odd_prime_power, is_prime, partitions, symmetric_class_size
from .errors import ParseError
from .permgroup import PermGroup
from .permgroup.groups import EXHAUSTIVE_BOUND
from .permgroup.perms import _cycle_type

#: Census stream default; ascending odd primes from 3.
DEFAULT_PRIME_BUDGET = 200

#: Chi-square tail probability below which a candidate is rejected.
MATCH_THRESHOLD = 0.01


# -- integer polynomials -----------------------------------------------------


class IntPoly:
    """Dense integer polynomial, coefficients ascending, trimmed; immutable."""

    def __init__(self, coeffs: Sequence[int]):
        c = tuple(int(x) for x in coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"IntPoly is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is IntPoly else NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    @cached_property
    def discriminant(self) -> int:
        """(-1)^(n(n-1)/2) Res(f, f')/lc(f), the resultant by the subresultant
        PRS over Z (Cohen, GTM 138, Alg. 3.3.7); 1 in degree 1."""
        n = self.degree
        if n < 1:
            raise ValueError("need degree >= 1")
        a, b = list(self.coeffs), list(self.derivative().coeffs)
        ca, cb = _content(a), _content(b)
        a, b = [x // ca for x in a], [x // cb for x in b]
        g = h = s = 1
        while len(b) > 1:
            db = len(b) - 1
            delta = len(a) - 1 - db
            if (db + delta) & db & 1:
                s = -s
            # r = lc(b)^(delta+1) a mod b, one pseudo-division step per degree
            r, lb = a, b[-1]
            for i in range(delta, -1, -1):
                c = r[-1]
                r = [lb * x for x in r[:-1]]
                for j in range(db):
                    r[i + j] -= c * b[j]
            while r and not r[-1]:
                r.pop()
            if not r:
                return 0
            a, b = b, [x // (g * h**delta) for x in r]
            g = a[-1]
            h = g**delta // h ** (delta - 1) if delta else h
        res = s * ca ** (n - 1) * cb**n * b[0] ** (len(a) - 1) // h ** (len(a) - 2)
        return (-1) ** (n * (n - 1) // 2) * res // self.leading()

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                xa = "x" if i == 1 else f"x^{i}"
                term = xa if abs(c) == 1 else f"{abs(c)}*{xa}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    @classmethod
    def from_coefficient_text(cls, text: str) -> "IntPoly":
        """Raw ascending coefficient list, e.g. "3 -7 0 0 0 0 0 1"."""
        try:
            return cls(tuple(int(t) for t in text.split()))
        except ValueError as exc:
            raise ParseError(f"bad coefficient list {text!r}") from exc

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        """Parse expressions like "x^7 - 7*x + 3" (single variable x).

        Grammar: poly = [sign] term (sign term)*;
        term = int ["*" x-part] | x-part; x-part = "x" ["^" int].
        """
        s = text.replace(" ", "")
        if not s:
            raise ParseError("empty polynomial")
        token = re.compile(
            r"(?P<sign>[+-])|(?P<coef>\d+)(?:\*?(?P<xc>x(?:\^(?P<ec>\d+))?))?|(?P<x>x(?:\^(?P<e>\d+))?)"
        )
        pos = 0
        sign = 1
        expect_term = True
        coeffs: dict[int, int] = {}
        while pos < len(s):
            m = token.match(s, pos)
            if not m:
                raise ParseError(f"cannot parse polynomial at ...{s[pos:]!r}")
            pos = m.end()
            if m.group("sign"):
                if expect_term and m.start() > 0:
                    raise ParseError(f"misplaced sign in {text!r}")
                sign = sign * (-1 if m.group("sign") == "-" else 1) if expect_term else (
                    -1 if m.group("sign") == "-" else 1
                )
                expect_term = True
                continue
            if not expect_term:
                raise ParseError(f"missing operator before ...{s[m.start():]!r}")
            if m.group("coef") is not None:
                c = int(m.group("coef"))
                if m.group("xc"):
                    e = int(m.group("ec")) if m.group("ec") else 1
                else:
                    e = 0
            else:
                c = 1
                e = int(m.group("e")) if m.group("e") else 1
            coeffs[e] = coeffs.get(e, 0) + sign * c
            sign = 1
            expect_term = False
        if expect_term:
            raise ParseError(f"dangling sign in {text!r}")
        if not coeffs:
            raise ParseError(f"no terms in {text!r}")
        deg = max(coeffs)
        return cls(tuple(coeffs.get(i, 0) for i in range(deg + 1)))


def _content(c: Sequence[int]) -> int:
    g = 0
    for x in c:
        g = math.gcd(g, x)
    return g or 1


def is_squarefree(f: IntPoly) -> bool:
    """Exact: the discriminant of f is nonzero (ValueError below degree 1)."""
    return f.discriminant != 0


# -- packed polynomials mod p (Kronecker substitution) --------------------------


class _Slots:
    """Polynomials mod p of degree <= n packed into w-bit slots of one
    integer, slot i holding coefficient i, canonical in [0, p) between steps.

    A product of canonical polynomials of degree < n has slots below np^2,
    and the DDF's reduction modulo f leaves its quotient's slots in [0, 2p),
    whose products with mu and with the tail of f stay below 2np^2: no slot
    reaches 3np^2 < 2^b, so none carries into the next.  ``vmod`` reduces
    all slots at once by Barrett's method (CRYPTO '86): q = floor(v m / 2^b)
    with m = floor(2^b / p) is floor(v / p) or one less, and bit c of
    v - q p + 2^c - p says which.  v m < 2^(2b - c + 1) must fit a slot, so
    w is the least multiple of 8 with w >= 2b - c + 3.
    """

    def __init__(self, n: int, p: int):
        self.p, self.b, self.c = p, (3 * n * p * p).bit_length(), p.bit_length()
        self.w = w = (2 * self.b - self.c + 10) // 8 * 8
        ones = int.from_bytes((b"\1" + bytes(w // 8 - 1)) * (n + 1), "little")
        self.m, self.ones = (1 << self.b) // p, ones
        self.low = ((1 << w - self.b) - 1) * ones  # room for each slot's q
        self.bias = ((1 << self.c) - p) * ones

    def vmod(self, x: int) -> int:
        p = self.p
        x -= (x * self.m >> self.b & self.low) * p
        return x - ((x + self.bias) >> self.c & self.ones) * p

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """Quotient and remainder of a by b != 0.  Each step clears the top
        slot of a, whose quotient digit is t = top / lc(b) mod p, and adds
        (p - t) times the shifted tail of b; at most n steps of < p^2 each
        stay lazy until one ``vmod``."""
        w, p = self.w, self.p
        db = (b.bit_length() - 1) // w
        tail, q = b & (1 << db * w) - 1, 0
        inv = pow(b >> db * w, -1, p)
        for i in range((a.bit_length() - 1) // w, db - 1, -1):
            v = a >> i * w
            a -= v << i * w
            top = v * inv % p
            q = q << w | top
            if top:
                a += (p - top) * tail << (i - db) * w
        return q, self.vmod(a)


def _pm_gcd(a: int, b: int, r: _Slots) -> int:
    """A gcd of two packed polynomials mod p, defined up to a unit: the DDF
    reads only its degree and divides by it exactly."""
    while b >> r.w:
        a, b = b, r.divmod(a, b)[1]
    return b or a


def degree_pattern_mod_p(f: IntPoly, p: int) -> Optional[tuple[int, ...]]:
    """Multiset of irreducible-factor degrees of f mod p, descending.

    Distinct-degree factorization by one bisection over degree ranges,
    blocked as in von zur Gathen-Shoup (*Comput. Complexity* 2, 1992): for
    a squarefree ``work`` dividing f, gcd(work, P_k) with P_k = prod_{d <= k}
    (x^(p^d) - x) mod f is the product of its factors of degree <= k.  A
    node (work, (lo, hi]) holds factors of degrees in (lo, hi], hi <= L =
    deg work.  From (f, (0, n]), work is one factor when L < 2(lo + 1), and
    L / hi factors of degree hi when hi = lo + 1; otherwise it splits into
    (g, (lo, mid]) and (work / g, (mid, hi]), dropping a child of degree 0,
    with g = gcd(work, P_mid) and mid = min(floor((lo + hi) / 2), n // 2).
    Only the partition matters, so no equal-degree splitting is needed.

    The powers x^(p^d) come from the Frobenius (Berlekamp) matrix Q of
    f mod p, row i = x^(p*i) mod f: x^p mod f by square-and-multiply once,
    from x^e for the leading bits e < n of p, then h(x)^p = sum_i h_i Q_i
    (Cohen, GTM 138, section 3.4; von zur Gathen-Gerhard, *Modern Computer
    Algebra*, ch. 14).  They stay reduced modulo f, never modulo ``work``:
    ``work`` divides f, so every gcd is unchanged.

    Every polynomial, gcds and divisions included, is a packed integer
    (Kronecker substitution; von zur Gathen-Gerhard, section 8.4) with its
    slots reduced mod p at once by ``_Slots.vmod``; only the matrix-vector
    step reads coefficients out.  A product x is reduced modulo the monic f
    by Barrett division with mu = x^(2n-2) div f (von zur Gathen-Gerhard,
    section 9.1): the quotient (x div x^n) mu div x^(n-2) is exact, since
    polynomial division carries nothing, and its slots are left in [0, 2p).
    mu is one packed long division per prime; for x^n + a x + b it is
    x^(n-2).  A product by x folds its one slot above x^(n-1) into the rest.

    Returns None for a bad prime: p dividing the leading coefficient, or
    f mod p not squarefree, which for p not dividing lc(f) holds exactly
    when p divides the discriminant of f (computed once per polynomial).
    Raises ValueError unless p is an odd prime.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if f.leading() % p == 0:
        return None
    n = f.degree
    if n < 2:  # a constant or a linear polynomial
        return (1,) * n
    if f.discriminant % p == 0:
        return None
    r = _Slots(n, p)
    vmod, w, m, b, qlow = r.vmod, r.w, r.m, r.b, r.low
    inv = pow(f.leading(), -1, p)
    fm = sum(c * inv % p << i * w for i, c in enumerate(f.coeffs))  # f / lc(f) mod p
    low, shift, top, mask = (1 << w * n) - 1, w * (n - 2), w * (n - 1), (1 << w) - 1
    mu = r.divmod(1 << w * (2 * n - 2), fm)[0]
    tail = r.vmod(p * r.ones - fm) & low  # -f mod p without its x^n

    def reduce(x: int) -> int:
        # x of degree <= 2n - 2; its high half is reduced before it meets mu,
        # or a dense mu overflows a slot
        q = x >> w * n
        q = (q - (q * m >> b & qlow) * p) * mu >> shift
        q -= (q * m >> b & qlow) * p
        return vmod((x & low) + (q * tail & low))

    s = max(p.bit_length() - (n - 1).bit_length(), 0)
    s += p >> s >= n
    xp = 1 << w * (p >> s)
    for i in range(s - 1, -1, -1):
        xp = reduce(xp * xp)
        if p >> i & 1:
            xp = vmod((xp << w & low) + (xp >> top) * tail)
    rows = [1, xp]
    while len(rows) < n:
        rows.append(reduce(rows[-1] * xp))
    minus_x = (p - 1) << w
    prods, h = [vmod(xp + minus_x)], xp  # P_1 .. P_(n // 2)
    while len(prods) < n // 2:
        h = vmod(sum(map(operator.mul, [h >> i & mask for i in range(0, n * w, w)], rows)))
        prods.append(reduce(prods[-1] * vmod(h + minus_x)))
    degrees, nodes = [], [(fm, 0, n)]
    while nodes:
        work, lo, hi = nodes.pop()
        left = (work.bit_length() - 1) // w
        hi = min(hi, left)  # no factor of work is longer than work
        if left < 2 * lo + 2:  # two factors would need degree >= 2(lo + 1)
            degrees.append(left)
        elif hi == lo + 1:
            degrees.extend([hi] * (left // hi))
        else:
            mid = min((lo + hi) // 2, n // 2)
            g = _pm_gcd(prods[mid - 1], work, r)
            dg = (g.bit_length() - 1) // w
            if dg < left:
                nodes.append((r.divmod(work, g)[0] if dg else work, mid, hi))
            if dg:
                nodes.append((g, lo, mid))
    return tuple(sorted(degrees, reverse=True))


def odd_primes() -> Iterator[int]:
    return filter(is_prime, itertools.count(3, 2))


# -- the census ----------------------------------------------------------------


class CycleTypeCensus:
    """Observed degree partitions over the sampled good primes.

    ``patterns`` holds every prime tried, with its degree pattern (None for
    a bad prime).
    """

    def __init__(self, degree: int, sampled: int, counts: dict[tuple[int, ...], int],
                 excluded: Optional[list[tuple[int, str]]] = None,
                 patterns: Optional[dict[int, Optional[tuple[int, ...]]]] = None):
        self.degree, self.sampled, self.counts = degree, sampled, counts
        self.excluded = [] if excluded is None else excluded
        self.patterns = {} if patterns is None else patterns

    def support(self) -> set[tuple[int, ...]]:
        return set(self.counts)

    def to_stable_dict(self) -> dict:
        return {
            "degree": self.degree,
            "sampled": self.sampled,
            "counts": {",".join(map(str, k)): v for k, v in sorted(self.counts.items())},
            "excluded": [[p, reason] for p, reason in self.excluded],
        }


def census(f: IntPoly, prime_budget: int = DEFAULT_PRIME_BUDGET) -> CycleTypeCensus:
    """Partition census over the first ``prime_budget`` good odd primes.

    Good primes are consumed ascending from 3; primes dividing the leading
    coefficient or giving a non-squarefree reduction are recorded as
    excluded and do not count against the budget.  The census is
    deterministic for fixed input.
    """
    if prime_budget < 1:
        raise ValueError("prime budget must be >= 1")
    if not is_squarefree(f):
        raise ValueError("polynomial has a repeated root")
    counts: dict[tuple[int, ...], int] = {}
    excluded: list[tuple[int, str]] = []
    patterns: dict[int, Optional[tuple[int, ...]]] = {}
    # one tuple per distinct pattern: ~200 live copies fragment the heap
    canonical: dict[tuple[int, ...], tuple[int, ...]] = {}
    good = 0
    for p in odd_primes():
        if good == prime_budget:
            break
        pattern = degree_pattern_mod_p(f, p)
        if pattern is not None:
            pattern = canonical.setdefault(pattern, pattern)
        patterns[p] = pattern
        if pattern is None:
            reason = (
                "divides leading coefficient" if f.leading() % p == 0 else "non-squarefree reduction"
            )
            excluded.append((p, reason))
            continue
        counts[pattern] = counts.get(pattern, 0) + 1
        good += 1
    return CycleTypeCensus(
        degree=f.degree, sampled=good, counts=counts, excluded=excluded, patterns=patterns
    )


# -- exact distributions and matching -------------------------------------------


def cycle_type_distribution(group: PermGroup) -> dict[tuple[int, ...], Fraction]:
    """Exact cycle-type distribution of a permutation group.

    For |G| = n! (G = S_n) and |G| = n!/2 (G = A_n, the only index-2
    subgroup of S_n) the class-size formula n! / prod k^m_k m_k! over the
    partitions of n gives it directly; A_n keeps the even types, doubled.
    Any other group is enumerated as raw image tuples from its stabilizer
    chain, each cycle type read off by one walk over the points, and the
    exhaustive bound applies.  The fractions sum to 1 and the underlying
    counts to the group order.
    """
    order = group.order()
    n = group.degree
    full = math.factorial(n)
    if order in (full, full // 2):
        even_only = order != full
        return {
            t: Fraction(symmetric_class_size(t), order)
            for t in partitions(n)
            if not even_only or (n - len(t)) % 2 == 0
        }
    if order > EXHAUSTIVE_BOUND:
        raise ValueError(f"group order {order} exceeds the census bound")
    counts: dict[tuple[int, ...], int] = {}
    for g in group.chain.elements():
        t = _cycle_type(g)
        counts[t] = counts.get(t, 0) + 1
    return {t: Fraction(c, order) for t, c in counts.items()}


def _chi_square_tail(x: float, df: int) -> float:
    """Upper tail P(X >= x) for chi-square with df degrees of freedom."""
    if x <= 0:
        return 1.0
    return _gammq(df / 2.0, x / 2.0)


def _gammq(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x); series or continued fraction."""
    if x < 0 or a <= 0:
        raise ValueError("bad arguments to gammq")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        # lower series
        ap = a
        total = term = 1.0 / a
        for _ in range(500):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        lower = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return max(0.0, min(1.0, 1.0 - lower))
    # continued fraction
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    upper = h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    return max(0.0, min(1.0, upper))


class GroupHypothesis:
    """One candidate's match against a census.

    ``distribution`` is the candidate's exact cycle-type distribution, or
    None when a census pattern refuted the candidate by Lagrange before it
    was computed.
    """

    def __init__(self, name: str, group: PermGroup, matched: bool, confidence: float,
                 chi_square: float, support_contained: bool, transitive_evidence: bool,
                 distribution: Optional[dict[tuple[int, ...], Fraction]]):
        self.name, self.group, self.matched, self.confidence = name, group, matched, confidence
        self.chi_square, self.support_contained = chi_square, support_contained
        self.transitive_evidence, self.distribution = transitive_evidence, distribution


def identify(
    sample: CycleTypeCensus,
    candidates: Sequence[PermGroup],
) -> list[GroupHypothesis]:
    """Match the census against candidate groups of the same degree.

    A candidate matches when the observed partition support is contained
    in its cycle-type support and the chi-square tail probability of the
    observed partition frequencies against its exact distribution is at
    least ``MATCH_THRESHOLD``.  A census pattern whose lcm does not divide
    |G| is outside G's support by Lagrange, so such a candidate is rejected
    (chi-square inf, confidence 0) without computing its distribution.
    Results are sorted by confidence, descending.
    """
    results = []
    n_cycle_seen = any(
        t[0] in (sample.degree, sample.degree - 1) for t in sample.counts
    )
    for cand in candidates:
        if cand.degree != sample.degree:
            raise ValueError(
                f"candidate degree {cand.degree} does not match census degree {sample.degree}"
            )
        if sample.sampled == 0:
            raise ValueError("empty census")
        order = cand.order()
        refuted = any(order % math.lcm(*t) for t in sample.counts)
        dist = None if refuted else cycle_type_distribution(cand)
        contained = dist is not None and sample.counts.keys() <= dist.keys()
        if contained:
            chi = 0.0
            for t, prob in sorted(dist.items()):
                expected = float(prob) * sample.sampled
                observed = sample.counts.get(t, 0)
                chi += (observed - expected) ** 2 / expected
            df = max(len(dist) - 1, 1)
            conf = _chi_square_tail(chi, df)
        else:
            chi = math.inf
            conf = 0.0
        results.append(
            GroupHypothesis(
                name=cand.name or f"degree-{cand.degree} candidate",
                group=cand,
                matched=contained and conf >= MATCH_THRESHOLD,
                confidence=conf,
                chi_square=chi,
                support_contained=contained,
                transitive_evidence=n_cycle_seen,
                distribution=dist,
            )
        )
    results.sort(key=lambda h: (-h.confidence, h.name))
    return results


def standard_candidates(n: int) -> list[PermGroup]:
    """Default candidate list for degree n: the families this engine knows."""
    from .permgroup import families as fam

    out: list[PermGroup] = []
    # S_n and A_n are weighed by n! and n!/2: building one costs a stabilizer chain
    if n >= 2 and math.factorial(n) <= EXHAUSTIVE_BOUND:
        out.append(fam.symmetric_group(n))
    if n >= 3 and math.factorial(n) // 2 <= EXHAUSTIVE_BOUND:
        out.append(fam.alternating_group(n))
    if n >= 3:
        out.append(fam.cyclic_group(n))
    if n >= 4:
        out.append(fam.dihedral_group(n))  # D3 duplicates S3
    if n == 5:
        out.append(fam.frobenius_group_20())
    if n == 7:
        out.append(fam.frobenius_group_21())
        out.append(fam.frobenius_group_42())
        out.append(fam.psl2_7_on_7_points())
    if n == 11:
        out.append(fam.psl2_11_on_11_points())
        out.append(fam.mathieu_group(11))
    if n == 12:
        out.append(fam.mathieu_group(12))
    prime_power = n - 1
    if n >= 6 and is_odd_prime_power(prime_power):
        out.append(fam.psl2(prime_power))
    # keep only enumerable candidates
    return [g for g in out if g.order() <= EXHAUSTIVE_BOUND]


def joint_census(
    f: IntPoly,
    h: IntPoly,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
    known_f: Optional[CycleTypeCensus] = None,
    known_h: Optional[CycleTypeCensus] = None,
) -> tuple[CycleTypeCensus, CycleTypeCensus, dict[tuple, int], float]:
    """Paired censuses of f and h over shared good primes.

    Returns the two marginal censuses, the joint partition-pair counts,
    and an independence score: the chi-square tail probability of the
    contingency table.  Used as heuristic evidence that the splitting
    fields are linearly disjoint (product distribution), never as proof.
    ``known_f`` and ``known_h`` are earlier censuses of f and h whose
    per-prime patterns are reused rather than recomputed.
    """
    seen_f = known_f.patterns if known_f is not None else {}
    seen_h = known_h.patterns if known_h is not None else {}
    counts_f: dict[tuple[int, ...], int] = {}
    counts_h: dict[tuple[int, ...], int] = {}
    joint: dict[tuple, int] = {}
    excluded: list[tuple[int, str]] = []
    good = 0
    for p in odd_primes():
        if good == prime_budget:
            break
        pat_f = seen_f[p] if p in seen_f else degree_pattern_mod_p(f, p)
        pat_h = seen_h[p] if p in seen_h else degree_pattern_mod_p(h, p)
        if pat_f is None or pat_h is None:
            excluded.append((p, "bad prime for the pair"))
            continue
        counts_f[pat_f] = counts_f.get(pat_f, 0) + 1
        counts_h[pat_h] = counts_h.get(pat_h, 0) + 1
        joint[(pat_f, pat_h)] = joint.get((pat_f, pat_h), 0) + 1
        good += 1
    if good == 0:
        raise ValueError("no good primes for the pair")
    chi = 0.0
    for tf, cf in counts_f.items():
        for th, ch in counts_h.items():
            expected = cf * ch / good
            observed = joint.get((tf, th), 0)
            if expected > 0:
                chi += (observed - expected) ** 2 / expected
    df = max((len(counts_f) - 1) * (len(counts_h) - 1), 1)
    score = _chi_square_tail(chi, df)
    cen_f = CycleTypeCensus(f.degree, good, counts_f, excluded)
    cen_h = CycleTypeCensus(h.degree, good, counts_h, excluded)
    return cen_f, cen_h, joint, score
