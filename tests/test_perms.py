import pytest
from hypothesis import given, strategies as st

from endocert.errors import ParseError
from endocert.permgroup import Perm
from endocert.permgroup.perms import _cycle_type


def random_perm(n):
    return st.permutations(range(n)).map(lambda t: Perm(tuple(t)))


class TestBasics:
    def test_identity(self):
        e = Perm.identity(5)
        assert e.is_identity()
        assert e.order() == 1
        assert _cycle_type(e.images) == (1, 1, 1, 1, 1)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    def test_composition_applies_right_factor_first(self):
        s = Perm.parse("(1 2)", 3)
        t = Perm.parse("(2 3)", 3)
        # (s * t)(i) = s(t(i)): point 1 (0-based): t fixes it, s sends 0 -> 1
        assert (s * t)(0) == 1
        assert (s * t)(1) == 2

    def test_inverse_and_power(self):
        c = Perm.parse("(1 2 3 4 5)", 5)
        assert (c * c.inverse()).is_identity()
        assert c**5 == Perm.identity(5)
        assert c**-1 == c.inverse()
        assert c.order() == 5

    def test_cycle_type_and_parity(self):
        p = Perm.parse("(1 2)(3 4 5)", 6)
        assert _cycle_type(p.images) == (3, 2, 1)
        assert not p.is_even()
        assert Perm.parse("(1 2 3)", 4).is_even()


class TestParsing:
    def test_round_trip(self):
        p = Perm.parse("(1 2 3)(4 5)", 6)
        assert Perm.parse(p.cycle_string(), 6) == p

    def test_identity_text(self):
        assert Perm.parse("()", 4).is_identity()
        assert Perm.parse("", 4).is_identity()

    def test_commas_allowed(self):
        assert Perm.parse("(1,2,3)", 3) == Perm.parse("(1 2 3)", 3)

    def test_degree_is_explicit(self):
        p = Perm.parse("(1 2)", 6)
        assert p.degree == 6

    @pytest.mark.parametrize(
        "bad", ["(1 2 7)", "(1 1 2)", "(1 2)(2 3)", "(1 2) junk", "(0 1)"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            Perm.parse(bad, 6)


@given(random_perm(7), random_perm(7), random_perm(7))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(random_perm(6))
def test_inverse_property(p):
    assert (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p


@given(random_perm(8))
def test_order_annihilates(p):
    assert (p ** p.order()).is_identity()


@given(random_perm(6), random_perm(6))
def test_parity_multiplicative(a, b):
    assert (a * b).is_even() == (a.is_even() == b.is_even())
