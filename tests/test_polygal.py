import json
import random
from fractions import Fraction

import pytest

from endocert import polygal
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
    integer_poly_gcd,
    is_squarefree,
    joint_census,
    standard_candidates,
)
from oracles import ddf_pattern_mod_p, rational_poly_gcd_degree


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
        poly = IntPoly.parse(f)
        mine = integer_poly_gcd(poly, poly.derivative()).degree
        oracle = rational_poly_gcd_degree(poly.coeffs, poly.derivative().coeffs)
        assert mine == oracle


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
            for g in group.elements():
                counts[g.cycle_type()] = counts.get(g.cycle_type(), 0) + 1
            enumerated = {t: Fraction(c, group.order()) for t, c in counts.items()}
            closed = cycle_type_distribution(group)
            assert closed.keys() == enumerated.keys()
            assert closed == enumerated

    def test_closed_form_never_enumerates(self, monkeypatch):
        def refuse(self, limit=None):
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

    def test_psl2_7_distribution(self):
        dist = cycle_type_distribution(fam.psl2_7_on_7_points())
        assert dist[(7,)] == Fraction(48, 168)
        assert dist[(2, 2, 1, 1, 1)] == Fraction(21, 168)
        assert dist[(4, 2, 1)] == Fraction(42, 168)
        assert dist[(3, 3, 1)] == Fraction(56, 168)
        assert dist[(1,) * 7] == Fraction(1, 168)


class TestIdentify:
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
