import collections
import functools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endocert import polygal
from endocert.arith import is_prime, partitions
from endocert.errors import ParseError
from endocert.permgroup import PermGroup, Perm, families as fam
from endocert.permgroup.chain import StabilizerChain
from endocert.polygal import (
    CycleTypeCensus,
    IntPoly,
    census,
    cycle_type_distribution,
    degree_pattern_mod_p,
    identify,
    is_squarefree,
    joint_census,
    standard_candidates,
)
from oracles import (
    cycle_type,
    ddf_pattern_mod_p,
    enumerating_identify,
    rational_poly_gcd_degree,
    sylvester_discriminant,
)


class TestIntPoly:
    def test_parse_expression(self):
        f = IntPoly.parse("x^7 - 7*x + 3")
        assert f.coeffs == (3, -7, 0, 0, 0, 0, 0, 1)
        assert f.degree == 7

    def test_parse_matches_coefficient_text(self):
        assert IntPoly.parse("x^7 - 7*x + 3") == IntPoly.from_coefficient_text(
            "3 -7 0 0 0 0 0 1"
        )

    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("x", (0, 1)),
            ("-x", (0, -1)),
            ("2*x^2 + x", (0, 1, 2)),
            ("x^2 - 2x + 1", (1, -2, 1)),
            ("5", (5,)),
            ("x^3 + x^3", (0, 0, 0, 2)),
        ],
    )
    def test_grammar(self, text, coeffs):
        assert IntPoly.parse(text).coeffs == coeffs

    @pytest.mark.parametrize("bad", ["", "x^", "x + + 1", "y + 1", "3..2"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            IntPoly.parse(bad)

    def test_str_round_trip(self):
        f = IntPoly.parse("x^7 - 7*x + 3")
        assert IntPoly.parse(str(f)) == f

    def test_evaluation_and_derivative(self):
        f = IntPoly.parse("x^3 - 2")
        assert f(3) == 25
        assert f.derivative().coeffs == (0, 0, 3)


class TestSquarefree:
    def test_examples(self):
        assert is_squarefree(IntPoly.parse("x^2 - 1"))
        assert not is_squarefree(IntPoly.parse("x^2 - 2*x + 1"))
        assert is_squarefree(IntPoly.parse("x^7 - 7*x + 3"))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_squarefree(IntPoly(()))

    @pytest.mark.parametrize(
        "f",
        [
            "x^5 - 2",
            "x^4 + 4*x^2 + 4",
            "x^6 - 3*x^3 + 2",
            "4*x^4 - 4",
            "x^3 - 3*x - 1",
        ],
    )
    def test_gcd_agrees_with_rational_euclid(self, f):
        # disc(f) = 0 exactly when gcd(f, f') over Q is not constant
        poly = IntPoly.parse(f)
        oracle = rational_poly_gcd_degree(poly.coeffs, poly.derivative().coeffs)
        assert (poly.discriminant == 0) == (oracle > 0) == (not is_squarefree(poly))

    def test_constant_and_linear(self):
        with pytest.raises(ValueError):
            is_squarefree(IntPoly((5,)))
        with pytest.raises(ValueError):
            IntPoly((5,)).discriminant
        assert is_squarefree(IntPoly.parse("6*x - 5"))
        assert IntPoly.parse("6*x - 5").discriminant == 1


class TestDiscriminant:
    def test_against_the_sylvester_determinant(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(1, 12)
            lead = rng.choice([2, -2, 3, 5, -7, 12])
            low = rng.choice([(-9, 9), (0, 0), (0, 3)])
            f = IntPoly(tuple(rng.randint(*low) for _ in range(n)) + (lead,))
            assert f.discriminant == sylvester_discriminant(f.coeffs), f

    @pytest.mark.parametrize("n", range(2, 25))
    def test_trinomial_closed_form(self, n):
        # disc(x^n + a x + b) = (-1)^(n(n-1)/2) (n^n b^(n-1) + (-1)^(n-1) (n-1)^(n-1) a^n)
        a = b = -1
        closed = n**n * b ** (n - 1) + (-1) ** (n - 1) * (n - 1) ** (n - 1) * a**n
        assert IntPoly.parse(f"x^{n} - x - 1").discriminant == (-1) ** (n * (n - 1) // 2) * closed

    def test_computed_once_per_polynomial(self, monkeypatch):
        f = IntPoly.parse("x^9 - x - 1")
        census(f, 30)
        monkeypatch.setattr(IntPoly, "derivative", None)
        assert census(f, 30).counts and is_squarefree(f)


class TestDegreePattern:
    def test_irreducible_quadratic(self):
        assert degree_pattern_mod_p(IntPoly.parse("x^2 + 1"), 3) == (2,)

    def test_split_quadratic(self):
        assert degree_pattern_mod_p(IntPoly.parse("x^2 - 1"), 5) == (1, 1)

    def test_bad_prime_signalled(self):
        # x^2 - 1 is squarefree mod every odd prime; x^2 + 2x + 1 never is
        assert degree_pattern_mod_p(IntPoly.parse("x^2 + 2*x + 1"), 5) is None

    def test_leading_coefficient_prime_is_bad(self):
        assert degree_pattern_mod_p(IntPoly.parse("3*x^2 + x + 1"), 3) is None

    def test_partition_sums_to_degree(self):
        f = IntPoly.parse("x^7 - 7*x + 3")
        for p in (5, 11, 13, 17, 19, 23):
            pattern = degree_pattern_mod_p(f, p)
            if pattern is not None:
                assert sum(pattern) == 7

    def test_constant_and_linear(self):
        # a constant has the empty pattern and a linear polynomial one root,
        # unless p divides the leading coefficient
        assert degree_pattern_mod_p(IntPoly((5,)), 3) == ()
        assert degree_pattern_mod_p(IntPoly((5,)), 5) is None
        assert degree_pattern_mod_p(IntPoly.parse("6*x - 5"), 5) == (1,)
        assert degree_pattern_mod_p(IntPoly.parse("5*x - 6"), 5) is None
        with pytest.raises(ValueError):
            degree_pattern_mod_p(IntPoly(()), 3)

    def test_rejects_even_or_composite_p(self):
        with pytest.raises(ValueError):
            degree_pattern_mod_p(IntPoly.parse("x^2 + 1"), 2)
        with pytest.raises(ValueError):
            degree_pattern_mod_p(IntPoly.parse("x^2 + 1"), 9)


def _first_odd_primes(count):
    flags = bytearray([1]) * 1300
    flags[0] = flags[1] = 0
    for i in range(2, 37):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    primes = [n for n in range(3, len(flags)) if flags[n]]
    assert len(primes) >= count
    return primes[:count]


def _dense(degree, leading, seed):
    rng = random.Random(seed)
    return IntPoly(tuple(rng.randint(-99, 99) for _ in range(degree)) + (leading,))


_ORACLE_POLYS = {
    **{f"x^{n}-x-1": IntPoly.parse(f"x^{n} - x - 1") for n in (5, 7, 8, 9, 12, 16, 20, 24)},
    "trinks": IntPoly.parse("x^7 - 7*x + 3"),
    **{
        f"dense{n}": _dense(n, lead, seed)
        for n, lead, seed in ((2, 6, 1), (6, 3, 2), (11, -5, 3), (17, 2, 4), (24, 6, 5))
    },
}


class TestDegreePatternOracle:
    """The Frobenius-matrix DDF against a square-and-multiply ladder."""

    @pytest.mark.parametrize("f", list(_ORACLE_POLYS.values()), ids=list(_ORACLE_POLYS))
    def test_agrees_on_first_200_odd_primes(self, f):
        primes = _first_odd_primes(200)
        mine = [degree_pattern_mod_p(f, p) for p in primes]
        assert mine == [ddf_pattern_mod_p(f.coeffs, p) for p in primes]
        assert all(pat is None for p, pat in zip(primes, mine) if f.leading() % p == 0)

    def test_bad_primes_are_covered(self):
        # Trinks' discriminant is 3^8 7^8; a leading coefficient 6, 3 or -5
        # makes 3 or 5 a bad prime
        primes = _first_odd_primes(200)
        for name in ("trinks", "dense2", "dense6", "dense11", "dense24"):
            f = _ORACLE_POLYS[name]
            assert any(ddf_pattern_mod_p(f.coeffs, p) is None for p in primes), name


# 2^31 - 1, 10^9 + 7 and the first prime above 2^40: a Barrett slot has
# 2b - bits(p) + 3 bits rounded up to whole bytes, b the bit length of
# 3np^2, so 104-112 bits at every packed degree (n >= 2) at the first two,
# and 128-136 at the third
_WIDE_PRIMES = (2**31 - 1, 10**9 + 7, 2**40 + 15)
_WIDE_POLYS = {
    **{name: _ORACLE_POLYS[name] for name in ("x^24-x-1", "trinks", "dense11", "dense24")},
    "dense2": _ORACLE_POLYS["dense2"],
    "6x-5": IntPoly.parse("6*x - 5"),
}


class TestDegreePatternWideSlots:
    """Primes whose packed slots are more than 100 bits wide."""

    def test_first_prime_above_2_40(self):
        assert is_prime(2**40 + 15)
        assert not any(is_prime(q) for q in range(2**40, 2**40 + 15))

    @pytest.mark.parametrize("f", list(_WIDE_POLYS.values()), ids=list(_WIDE_POLYS))
    def test_agrees_with_oracle(self, f):
        mine = [degree_pattern_mod_p(f, p) for p in _WIDE_PRIMES]
        assert mine == [ddf_pattern_mod_p(f.coeffs, p) for p in _WIDE_PRIMES]
        assert all(pattern is not None and sum(pattern) == f.degree for pattern in mine)


def _slot_bits(n, p):
    return 2 * (3 * n * p * p).bit_length() - p.bit_length() + 3


# at each degree, the last prime whose slot fits 40 bits and the first whose
# slot needs 48: the census of a degree-12 or degree-24 polynomial crosses
# this step within its first 200 primes
_WIDTH_STEPS = {2: (1669, 1693), 12: (479, 487), 24: (241, 251)}
_EDGE_POLYS = {2: ("dense2",), 12: ("x^12-x-1",), 24: ("x^24-x-1", "dense24")}


@pytest.mark.parametrize("n", sorted(_WIDTH_STEPS))
def test_degree_pattern_on_both_sides_of_a_slot_width_step(n):
    below, above = _WIDTH_STEPS[n]
    assert is_prime(below) and is_prime(above)
    assert not any(is_prime(q) for q in range(below + 2, above, 2))
    assert not any(is_prime(q) for q in range(3, below, 2) if _slot_bits(n, q) > 40)
    assert _slot_bits(n, below) <= 40 < _slot_bits(n, above)
    assert (polygal._Slots(n, below).w, polygal._Slots(n, above).w) == (40, 48)
    for name in _EDGE_POLYS[n]:
        f = _ORACLE_POLYS[name]
        assert f.degree == n
        for p in (below, above):
            assert degree_pattern_mod_p(f, p) == ddf_pattern_mod_p(f.coeffs, p)


def test_degree_pattern_at_a_61_bit_prime():
    # degree_pattern_mod_p checks that p is prime on every call
    p = 2**61 - 1
    for f in (_ORACLE_POLYS["x^24-x-1"], _ORACLE_POLYS["dense11"]):
        assert degree_pattern_mod_p(f, p) == ddf_pattern_mod_p(f.coeffs, p)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_PROPERTY_PRIMES = [q for q in range(3, 1300, 2) if is_prime(q)] + [2**61 - 1]


@st.composite
def ddf_inputs(draw):
    """f of degree 2..24 and a prime.  A third of the f are a^2 b with
    deg a >= 1, a third are products of small factors over Z that come in
    pairs of equal degree, so that no factor mod p is longer than n/2 and
    degrees repeat, and a third are dense."""
    coeff = st.integers(-30, 30)
    arm = draw(st.sampled_from(["square", "pairs", "dense"]))
    if arm == "square":
        a = draw(st.lists(coeff, min_size=1, max_size=4)) + [draw(st.sampled_from([1, -1, 2, 3]))]
        room = 24 - 2 * (len(a) - 1)
        b = draw(st.lists(coeff, max_size=room)) + [draw(st.sampled_from([1, -5]))]
        coeffs = _times(_times(a, a), b)
    elif arm == "pairs":
        coeffs = [1]
        for d in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
            for _ in range(2):
                lead = draw(st.sampled_from([1, -1, 3]))
                coeffs = _times(coeffs, draw(st.lists(coeff, min_size=d, max_size=d)) + [lead])
    else:
        n = draw(st.integers(2, 24))
        coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
        coeffs.append(draw(st.integers(-12, 12).filter(bool)))
    return IntPoly(tuple(coeffs)), draw(st.sampled_from(_PROPERTY_PRIMES))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ddf_inputs())
def test_degree_pattern_agrees_with_the_ladder(case):
    f, p = case
    assert degree_pattern_mod_p(f, p) == ddf_pattern_mod_p(f.coeffs, p)


def test_census_gcd_work(monkeypatch):
    # none for squarefreeness, and one per split node of the degree-range
    # bisection: its first gcd splits off the factor of degree > 12 if any,
    # and the factors of degree <= 12 are split by halving the degree range,
    # not one degree at a time: 691 mod-p gcds for the 201 primes, against
    # 928 for a first gcd and then one per degree, and 1,907 per-degree gcds
    # alone
    calls = []
    gcd = polygal._pm_gcd
    monkeypatch.setattr(polygal, "_pm_gcd", lambda a, b, r: calls.append(r.p) or gcd(a, b, r))
    census(IntPoly.parse("x^24 - x - 1"))
    assert len(calls) <= 700


def _replay_bisection(degrees, n, branches):
    """The degree-range bisection of ``degree_pattern_mod_p`` run on a known
    list of factor degrees: tallies each node's branch in ``branches`` and
    returns (deg work, deg gcd) for every node that takes a gcd."""
    gcds, nodes = [], [(list(degrees), 0, n)]
    while nodes:
        work, lo, hi = nodes.pop()
        left = sum(work)
        hi = min(hi, left)
        assert all(lo < d <= hi for d in work)
        if left < 2 * lo + 2:
            assert len(work) == 1
            branches["single factor"] += 1
        elif hi == lo + 1:
            branches["equal degrees"] += 1
        else:
            mid = min((lo + hi) // 2, n // 2)
            short = [d for d in work if d <= mid]
            dg = sum(short)
            gcds.append((left, dg))
            branches["dg = 0" if dg == 0 else "dg = L" if dg == left else "split"] += 1
            if dg < left:
                nodes.append(([d for d in work if d > mid], mid, hi))
            if dg:
                nodes.append((short, lo, mid))
    return gcds


def _irreducible_mod(p, d, rng, taken):
    """A monic integer polynomial of degree d, coefficients in (-p/2, p/2),
    irreducible mod p and not in ``taken``."""
    while True:
        g = tuple(rng.randint(-(p // 2), p // 2) for _ in range(d)) + (1,)
        if g not in taken and ddf_pattern_mod_p(g, p) == (d,):
            taken.add(g)
            return g


# factor degrees mod 31 of products of small integer factors, every factor
# of degree <= n/2 and some degrees repeated
_SHORT_FACTOR_DEGREES = ([1, 1, 2, 3, 3, 4, 4, 6], [2, 2, 2, 2, 4, 4, 8], [5, 5, 7, 7], [3, 3, 3, 1])


def _short_factor_product(degrees, p=31):
    rng, taken, coeffs = random.Random(sum(degrees) * 1000 + len(degrees)), set(), [1]
    for d in degrees:
        coeffs = _times(coeffs, _irreducible_mod(p, d, rng, taken))
    return IntPoly(coeffs)


def test_degree_range_bisection_takes_every_branch(monkeypatch):
    events = []
    gcd = polygal._pm_gcd

    def counted(a, b, r):
        g = gcd(a, b, r)
        events.append(((b.bit_length() - 1) // r.w, (g.bit_length() - 1) // r.w))
        return g

    monkeypatch.setattr(polygal, "_pm_gcd", counted)
    branches = collections.Counter()
    for degrees in _SHORT_FACTOR_DEGREES:
        f = _short_factor_product(degrees)
        assert f.degree == sum(degrees)
        assert degree_pattern_mod_p(f, 31) == tuple(sorted(degrees, reverse=True))
        for p in _first_odd_primes(40):
            events.clear()
            mine = degree_pattern_mod_p(f, p)
            assert mine == ddf_pattern_mod_p(f.coeffs, p)
            if mine is not None:
                replay = _replay_bisection(mine, f.degree, branches)
                assert sorted(events) == sorted(replay)
    for branch in ("single factor", "equal degrees", "dg = 0", "dg = L"):
        assert branches[branch] >= 1, branch


class TestCensus:
    def test_cubic_sees_all_s3_patterns(self):
        sample = census(IntPoly.parse("x^3 - 2"), 100)
        assert set(sample.counts) == {(1, 1, 1), (2, 1), (3,)}
        assert sum(sample.counts.values()) == 100
        # rough Chebotarev frequencies for S3: 1/6, 1/2, 1/3
        assert 5 <= sample.counts[(1, 1, 1)] <= 30
        assert 35 <= sample.counts[(2, 1)] <= 65

    def test_quadratic_balance(self):
        sample = census(IntPoly.parse("x^2 + 1"), 100)
        assert set(sample.counts) == {(1, 1), (2,)}
        assert 35 <= sample.counts[(2,)] <= 65

    def test_repeated_root_rejected(self):
        with pytest.raises(ValueError):
            census(IntPoly.parse("x^2 - 2*x + 1"), 10)

    def test_deterministic_and_byte_stable(self):
        f = IntPoly.parse("x^7 - 7*x + 3")
        a = census(f, 200)
        b = census(f, 200)
        assert json.dumps(a.to_stable_dict(), sort_keys=True) == json.dumps(
            b.to_stable_dict(), sort_keys=True
        )

    def test_bad_primes_recorded_not_counted(self):
        sample = census(IntPoly.parse("x^7 - 7*x + 3"), 50)
        assert sample.sampled == 50
        assert (3, "non-squarefree reduction") in sample.excluded
        assert (7, "non-squarefree reduction") in sample.excluded


class TestDistributions:
    def test_distribution_sums_to_one(self):
        for build in (
            lambda: fam.symmetric_group(5),
            lambda: fam.alternating_group(7),
            fam.psl2_7_on_7_points,
            fam.frobenius_group_20,
        ):
            dist = cycle_type_distribution(build())
            assert sum(dist.values()) == Fraction(1)
            assert all(sum(t) == build().degree for t in dist)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_form_matches_enumeration(self, n):
        for group in (fam.symmetric_group(n), fam.alternating_group(n)):
            counts: dict[tuple[int, ...], int] = {}
            for t in group.chain.elements():
                key = cycle_type(Perm(t))
                counts[key] = counts.get(key, 0) + 1
            enumerated = {t: Fraction(c, group.order()) for t, c in counts.items()}
            closed = cycle_type_distribution(group)
            assert closed.keys() == enumerated.keys()
            assert closed == enumerated

    def test_closed_form_never_enumerates(self, monkeypatch):
        def refuse(self):
            raise AssertionError("element enumeration")

        monkeypatch.setattr(StabilizerChain, "elements", refuse)
        s9 = PermGroup(9, [Perm.parse("(1 2)", 9), Perm.parse("(1 2 3 4 5 6 7 8 9)", 9)])
        a9 = PermGroup(9, [Perm.parse("(1 2 3)", 9), Perm.parse("(1 2 3 4 5 6 7 8 9)", 9)])
        dist_s9 = cycle_type_distribution(s9)
        dist_a9 = cycle_type_distribution(a9)
        assert len(dist_s9) == 30  # partitions of 9
        assert sum(dist_s9.values()) == sum(dist_a9.values()) == Fraction(1)
        assert all((9 - len(t)) % 2 == 0 for t in dist_a9)
        assert dist_a9[(9,)] == 2 * dist_s9[(9,)] == Fraction(2, 9)

    @pytest.mark.parametrize(
        "build",
        [fam.psl2_7_on_7_points, lambda: fam.psl2(23), lambda: fam.mathieu_group(11)],
        ids=["PSL(2,7)", "PSL(2,23)", "M11"],
    )
    def test_enumeration_builds_no_perm(self, build, monkeypatch):
        group = build()
        counts: dict[tuple[int, ...], int] = {}
        for t in group.chain.elements():
            key = cycle_type(Perm(t))
            counts[key] = counts.get(key, 0) + 1

        def refuse(self, images):
            raise AssertionError("Perm built while enumerating")

        monkeypatch.setattr(Perm, "__init__", refuse)
        dist = cycle_type_distribution(group)
        assert dist == {t: Fraction(c, group.order()) for t, c in counts.items()}

    def test_psl2_7_distribution(self):
        dist = cycle_type_distribution(fam.psl2_7_on_7_points())
        assert dist[(7,)] == Fraction(48, 168)
        assert dist[(2, 2, 1, 1, 1)] == Fraction(21, 168)
        assert dist[(4, 2, 1)] == Fraction(42, 168)
        assert dist[(3, 3, 1)] == Fraction(56, 168)
        assert dist[(1,) * 7] == Fraction(1, 168)


class TestIdentify:
    def test_candidates_above_the_bound_are_never_built(self, monkeypatch):
        built = []
        build = StabilizerChain.build

        def counted(*args, **kwargs):
            chain = build(*args, **kwargs)
            built.append(chain.order())
            return chain

        monkeypatch.setattr(StabilizerChain, "build", counted)
        names = [g.name for g in standard_candidates(24)]
        assert built and max(built) <= polygal.EXHAUSTIVE_BOUND
        assert "S24" not in names and "A24" not in names

    def test_trinks_polynomial_matches_psl2_7_only(self):
        f = IntPoly.parse("x^7 - 7*x + 3")
        sample = census(f, 200)
        hyps = identify(sample, standard_candidates(7))
        by_name = {h.name: h for h in hyps}
        assert by_name["PSL(2,7) deg 7"].matched
        assert hyps[0].name == "PSL(2,7) deg 7"  # top confidence
        assert not by_name["S7"].matched
        assert not by_name["A7"].matched
        # Dedekind soundness: observed support inside the matched support
        assert sample.support() <= set(by_name["PSL(2,7) deg 7"].distribution)

    def test_x5_minus_2_matches_frobenius_20(self):
        sample = census(IntPoly.parse("x^5 - 2"), 200)
        hyps = identify(sample, standard_candidates(5))
        assert hyps[0].name == "F20" and hyps[0].matched
        assert not any(h.matched for h in hyps[1:])

    def test_transitive_evidence_recorded(self):
        sample = census(IntPoly.parse("x^5 - 2"), 100)
        hyps = identify(sample, standard_candidates(5))
        assert all(h.transitive_evidence for h in hyps)

    def test_empty_candidates(self):
        sample = census(IntPoly.parse("x^3 - 2"), 20)
        assert identify(sample, []) == []

    def test_empty_census_rejected(self):
        empty = CycleTypeCensus(degree=3, sampled=0, counts={})
        with pytest.raises(ValueError):
            identify(empty, [fam.symmetric_group(3)])

    def test_degree_mismatch_rejected(self):
        sample = census(IntPoly.parse("x^3 - 2"), 20)
        with pytest.raises(ValueError):
            identify(sample, [fam.symmetric_group(4)])

    def test_confidence_below_one(self):
        sample = census(IntPoly.parse("x^3 - 2"), 100)
        hyps = identify(sample, standard_candidates(3))
        assert all(h.confidence < 1 for h in hyps)

    def test_refuted_candidates_compute_no_distribution(self, monkeypatch):
        # the census of x^12 - x - 1 holds patterns with a 7-cycle, and 7
        # divides no candidate's order (C12, D12, PSL(2,11) and M12 with its
        # 95,040 elements), so Lagrange refutes them all
        computed = []
        full = polygal.cycle_type_distribution

        def recording(group):
            computed.append(group.name)
            return full(group)

        monkeypatch.setattr(polygal, "cycle_type_distribution", recording)
        hyps = identify(census(IntPoly.parse("x^12 - x - 1")), standard_candidates(12))
        assert computed == []
        assert "M12" in {h.name for h in hyps}
        assert all(h.distribution is None and h.chi_square == math.inf for h in hyps)
        assert not any(h.matched or h.support_contained or h.confidence for h in hyps)


@functools.lru_cache(maxsize=None)
def _candidates(n):
    return tuple(standard_candidates(n))


_DISTRIBUTIONS = {}


def _distribution(group):
    key = (group.degree, group.name)
    if key not in _DISTRIBUTIONS:
        _DISTRIBUTIONS[key] = cycle_type_distribution(group)
    return _DISTRIBUTIONS[key]


@st.composite
def candidate_censuses(draw):
    """A census of degree 5..12: patterns drawn from all partitions of n,
    from one candidate's support, or that candidate's expected counts."""
    n = draw(st.integers(5, 12))
    group = draw(st.sampled_from(_candidates(n)))
    mode = draw(st.sampled_from(["any", "support", "expected"]))
    if mode == "expected":
        total = draw(st.integers(20, 300))
        counts = {t: round(float(q) * total) for t, q in _distribution(group).items()}
        counts = {t: c for t, c in counts.items() if c} or {(n,): 1}
    else:
        shapes = list(partitions(n)) if mode == "any" else sorted(_distribution(group))
        counts = draw(st.dictionaries(st.sampled_from(shapes), st.integers(1, 40),
                                      min_size=1, max_size=6))
    return CycleTypeCensus(degree=n, sampled=sum(counts.values()), counts=counts)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(candidate_censuses())
def test_identify_agrees_with_the_enumerating_oracle(sample):
    candidates = _candidates(sample.degree)
    hyps = identify(sample, candidates)
    got = [(h.name, h.matched, h.confidence, h.support_contained, h.chi_square) for h in hyps]
    assert got == enumerating_identify(sample, candidates, _distribution)
    # a pattern that refutes by Lagrange is outside the enumerated support
    for group in candidates:
        refuting = [t for t in sample.counts if group.order() % math.lcm(*t)]
        assert not set(refuting) & set(_distribution(group))


def test_joint_census_independent_pair():
    f = IntPoly.parse("x^3 - 2")
    h = IntPoly.parse("x^3 + x - 1")
    cf, ch, joint, score = joint_census(f, h, 150)
    assert cf.sampled == ch.sampled == sum(joint.values())
    assert score > 0.01  # splitting fields look independent


def test_joint_census_reuses_known_patterns(monkeypatch):
    f = IntPoly.parse("x^7 - x - 1")
    h = IntPoly.parse("x^8 - x - 1")
    fresh = joint_census(f, h, 60)
    known_f, known_h = census(f, 60), census(h, 60)
    calls = []
    real = polygal.degree_pattern_mod_p

    def counted(poly, p):
        calls.append((poly, p))
        return real(poly, p)

    monkeypatch.setattr(polygal, "degree_pattern_mod_p", counted)
    reused = joint_census(f, h, 60, known_f=known_f, known_h=known_h)
    assert calls  # the pair needs a few primes past each census
    for poly, p in calls:
        assert p not in (known_f if poly == f else known_h).patterns
    assert [c.to_stable_dict() for c in reused[:2]] == [c.to_stable_dict() for c in fresh[:2]]
    assert reused[2:] == fresh[2:]


def test_joint_census_dependent_pair_scores_low():
    # identical polynomials give perfectly correlated patterns
    f = IntPoly.parse("x^3 - 2")
    _, _, _, score = joint_census(f, f, 150)
    assert score < 1e-6
