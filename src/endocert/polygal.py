"""From an integer polynomial to a Galois-group hypothesis.

Pipeline: exact squarefreeness (subresultant gcd over Z), distinct-degree
factorization of the reductions mod p over a deterministic stream of odd
primes, a census of the resulting degree partitions (Frobenius cycle
types), and a goodness-of-fit match of the census against the exact
cycle-type distributions of candidate groups.

The distinct-degree factorization pays for one x^p mod f per prime and
builds the Frobenius matrix Q of f mod p from it; each further power
x^(p^d) is then one matrix-vector product.  The powers stay reduced modulo
f while factors are divided out of it: the remaining part divides f, so its
gcds with x^(p^d) - x are unchanged.

Identification is evidence, never proof: matches carry a confidence below
1 and downstream verdicts stay flagged as conditional on the group
assignment.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .arith import is_odd_prime_power, is_prime, partitions
from .errors import ParseError
from .permgroup import PermGroup
from .permgroup.groups import EXHAUSTIVE_BOUND

#: Census stream default; ascending odd primes from 3.
DEFAULT_PRIME_BUDGET = 200

#: Chi-square tail probability below which a candidate is rejected.
MATCH_THRESHOLD = 0.01


# -- integer polynomials -----------------------------------------------------


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients ascending, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

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


def _primitive(c: list[int]) -> list[int]:
    g = _content(c)
    return [x // g for x in c]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over Z (b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        la = a[-1]
        shifted = [0] * (da - db) + [x * la for x in b]
        a = [lb * x - y for x, y in zip(a, shifted)]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def integer_poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over Z via a primitive pseudo-remainder sequence."""
    a, b = list(f.coeffs), list(g.coeffs)
    if not a:
        return IntPoly(tuple(_primitive(b))) if b else IntPoly(())
    if not b:
        return IntPoly(tuple(_primitive(a)))
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r) if r else []
    return IntPoly(tuple(x * (1 if a[-1] > 0 else -1) for x in a))


def is_squarefree(f: IntPoly) -> bool:
    """Exact: gcd(f, f') over the rationals is constant."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    return integer_poly_gcd(f, f.derivative()).degree == 0


# -- arithmetic mod p ---------------------------------------------------------


def _pmod(f: IntPoly, p: int) -> list[int]:
    c = [x % p for x in f.coeffs]
    while c and c[-1] == 0:
        c.pop()
    return c


def _pm_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pm_trim([v % p for v in out])


def _pm_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b mod p; b trimmed and nonzero.

    The leading coefficient of b is inverted once; ``top`` walks down the
    dividend, and the entries below it are reduced mod p only at the end.
    """
    r = list(a)
    db = len(b) - 1
    top = len(r) - 1
    if top < db:
        return [], _pm_trim(r)
    inv = pow(b[-1], p - 2, p)
    q = [0] * (top - db + 1)
    low = b[:db]
    while top >= db:
        c = r[top] * inv % p
        if c:
            q[top - db] = c
            base = top - db
            r[base:top] = [x - c * y for x, y in zip(r[base:top], low)]
        top -= 1
    return _pm_trim(q), _pm_trim([x % p for x in r[:db]])


def _pm_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _pm_trim(list(a)), _pm_trim(list(b))
    while b:
        a, b = b, _pm_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(x * inv) % p for x in a]
    return a


def _pm_powmod(base: list[int], e: int, modpoly: list[int], p: int) -> list[int]:
    result = [1]
    base = _pm_divmod(base, modpoly, p)[1]
    while e:
        if e & 1:
            result = _pm_divmod(_pm_mul(result, base, p), modpoly, p)[1]
        base = _pm_divmod(_pm_mul(base, base, p), modpoly, p)[1]
        e >>= 1
    return result


def degree_pattern_mod_p(f: IntPoly, p: int) -> Optional[tuple[int, ...]]:
    """Multiset of irreducible-factor degrees of f mod p, descending.

    Distinct-degree factorization only: the product of the factors of
    degree d is gcd(work, x^(p^d) - x), where ``work`` is what remains of
    f mod p after the factors of degree < d are divided out.  No
    equal-degree splitting is needed because only the partition matters.

    The powers x^(p^d) come from the Frobenius (Berlekamp) matrix Q of
    f mod p, whose row i is x^(p*i) mod f: x^p mod f is computed once by
    square-and-multiply, and then each next power is h(x)^p = sum_i h_i Q_i,
    one n x n matrix-vector product (Cohen, GTM 138, section 3.4; von zur
    Gathen-Gerhard, *Modern Computer Algebra*, ch. 14).  The powers stay
    reduced modulo f itself, never modulo ``work``: ``work`` divides f, so
    h is congruent to x^(p^d) modulo ``work`` and every gcd is unchanged.

    Returns None for a bad prime: p dividing the leading coefficient, or
    f mod p not squarefree.  Raises ValueError unless p is an odd prime.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if f.leading() % p == 0:
        return None
    fp = _pmod(f, p)
    deriv = _pm_trim([(i * fp[i]) % p for i in range(1, len(fp))])
    if len(_pm_gcd(fp, deriv, p)) - 1 != 0:
        return None
    n = len(fp) - 1
    xp = _pm_powmod([0, 1], p, fp, p)
    rows = [[1], xp]
    while len(rows) < n:
        rows.append(_pm_divmod(_pm_mul(rows[-1], xp, p), fp, p)[1])
    # columns of Q padded to length n, so each entry of h^p is one dot product
    cols = list(zip(*(row + [0] * (n - len(row)) for row in rows[:n])))
    degrees: list[int] = []
    work, h, d = fp, xp, 1
    while 2 * d <= len(work) - 1:
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        g = _pm_gcd(work, _pm_trim(h_minus_x), p)
        deg_g = len(g) - 1
        if deg_g > 0:
            degrees.extend([d] * (deg_g // d))
            work = _pm_divmod(work, g, p)[0]
        d += 1
        h = _pm_trim([sum(map(operator.mul, h, col)) % p for col in cols])
    if len(work) > 1:
        # no factor of degree < d is left and 2d exceeds the degree
        degrees.append(len(work) - 1)
    return tuple(sorted(degrees, reverse=True))


def odd_primes() -> Iterator[int]:
    return filter(is_prime, itertools.count(3, 2))


# -- the census ----------------------------------------------------------------


@dataclass
class CycleTypeCensus:
    """Observed degree partitions over the sampled good primes."""

    degree: int
    sampled: int
    counts: dict[tuple[int, ...], int]
    excluded: list[tuple[int, str]] = field(default_factory=list)
    #: every prime tried, with its degree pattern (None for a bad prime)
    patterns: dict[int, Optional[tuple[int, ...]]] = field(
        default_factory=dict, repr=False, compare=False
    )

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


def _class_size(parts: tuple[int, ...]) -> int:
    """Number of permutations of cycle type ``parts``: n! / prod k^m_k m_k!."""
    denom = 1
    for k in set(parts):
        m = parts.count(k)
        denom *= k**m * math.factorial(m)
    return math.factorial(sum(parts)) // denom


def cycle_type_distribution(group: PermGroup) -> dict[tuple[int, ...], Fraction]:
    """Exact cycle-type distribution of a permutation group.

    For |G| = n! (G = S_n) and |G| = n!/2 (G = A_n, the only index-2
    subgroup of S_n) the class-size formula n! / prod k^m_k m_k! over the
    partitions of n gives it directly; A_n keeps the even types, doubled.
    Any other group is enumerated, and the exhaustive bound applies.  The
    fractions sum to 1 and the underlying counts to the group order.
    """
    order = group.order()
    n = group.degree
    full = math.factorial(n)
    if order in (full, full // 2):
        even_only = order != full
        return {
            t: Fraction(_class_size(t), order)
            for t in partitions(n)
            if not even_only or (n - len(t)) % 2 == 0
        }
    if order > EXHAUSTIVE_BOUND:
        raise ValueError(f"group order {order} exceeds the census bound")
    counts: dict[tuple[int, ...], int] = {}
    for g in group.elements():
        t = g.cycle_type()
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


@dataclass
class GroupHypothesis:
    """One candidate's match against a census."""

    name: str
    group: PermGroup
    matched: bool
    confidence: float
    chi_square: float
    support_contained: bool
    excess_partitions: tuple[tuple[int, ...], ...]
    transitive_evidence: bool
    distribution: dict[tuple[int, ...], Fraction]


def identify(
    sample: CycleTypeCensus,
    candidates: Sequence[PermGroup],
) -> list[GroupHypothesis]:
    """Match the census against candidate groups of the same degree.

    A candidate matches when the observed partition support is contained
    in its cycle-type support and the chi-square tail probability of the
    observed partition frequencies against its exact distribution is at
    least ``MATCH_THRESHOLD``.  Results are sorted by confidence, descending.
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
        dist = cycle_type_distribution(cand)
        excess = tuple(sorted(set(sample.counts) - set(dist)))
        contained = not excess
        if sample.sampled == 0:
            raise ValueError("empty census")
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
                excess_partitions=excess,
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
    if n >= 2:
        out.append(fam.symmetric_group(n))
    if n >= 3:
        out.append(fam.alternating_group(n))
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
