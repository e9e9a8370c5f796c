import random

import pytest
from hypothesis import example, given, settings, strategies as st

from endocert import fflin
from endocert.fflin import (
    FSubalgebra,
    MatF,
    algebra_closure,
    centralizer_basis,
    double_centralizer_check,
    format_matrix,
    kernel,
    rref,
)
from endocert.permgroup import Perm
from endocert.permgroup import families as fam
from endocert.repmod import act, build_heart
from oracles import (
    brute_force_commutant_4x4,
    dense_rref_mod_p,
    matrix_entries,
    subalgebra_elements,
    sylvester_centralizer,
)


def mat_strategy(rows, cols):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(MatF.from_entries)


class TestElimination:
    def test_identity_full_rank(self):
        e = rref(MatF.identity(3))
        assert e.rank == 3
        assert kernel(MatF.identity(3)) == []

    def test_zero_matrix(self):
        z = MatF(2, 3, (0, 0))
        assert rref(z).rank == 0
        assert kernel(z) == [1, 2, 4]

    def test_five_cycle_heart_matrix_invertible(self):
        heart = build_heart(5)
        m = act(heart, Perm.parse("(1 2 3 4 5)", 5))
        assert rref(m).rank == 4

    @given(mat_strategy(4, 5))
    @settings(max_examples=60)
    def test_rref_idempotent_mod2(self, m):
        e = rref(m)
        again = rref(e.matrix)
        assert again.matrix == e.matrix
        assert again.rank == e.rank

    @given(mat_strategy(4, 4))
    @settings(max_examples=60)
    def test_packed_path_agrees_with_scalar_oracle(self, m):
        e = rref(m)
        rows, r, pivots = dense_rref_mod_p(matrix_entries(m), 2)
        assert e.rank == r
        assert tuple(e.pivots) == tuple(pivots)
        assert matrix_entries(e.matrix) == [[x % 2 for x in row] for row in rows]

    @given(mat_strategy(3, 5))
    @settings(max_examples=60)
    def test_kernel_vectors_annihilated(self, m):
        for v in kernel(m):
            cols = [(v >> j) & 1 for j in range(m.ncols)]
            prod = [
                sum(m.entry(i, j) * cols[j] for j in range(m.ncols)) % 2
                for i in range(m.nrows)
            ]
            assert all(x == 0 for x in prod)


class TestMatF:
    def test_pow_and_identity(self):
        c = MatF.from_entries([[0, 1], [1, 1]])
        assert (c**3).is_identity()  # companion of x^2+x+1 has order 3

    def test_format_matrix(self):
        m = MatF.from_entries([[1, 0, 1], [0, 0, 1]])
        assert format_matrix(m) == "2 2 3\n1 0 1\n0 0 1"


class TestCentralizer:
    def test_identity_input_gives_full_algebra(self):
        alg = centralizer_basis([MatF.identity(4)])
        assert alg.dim == 16

    def test_five_cycle_heart_is_f16(self):
        heart = build_heart(5)
        m = act(heart, Perm.parse("(1 2 3 4 5)", 5))
        alg = centralizer_basis([m])
        assert alg.dim == 4
        assert alg.field_test() == (True, 16)

    def test_five_cycle_heart_against_brute_force(self):
        heart = build_heart(5)
        m = act(heart, Perm.parse("(1 2 3 4 5)", 5))
        brute = brute_force_commutant_4x4([m.rows])
        alg = centralizer_basis([m])
        assert len(brute) == 2**alg.dim
        assert subalgebra_elements([b.rows for b in alg.basis_matrices()], 4) == set(
            brute
        )

    def test_psl2_11_heart_is_f4(self):
        from endocert.permgroup import families as fam

        g = fam.psl2(11)
        heart = build_heart(12)
        alg = centralizer_basis([act(heart, p) for p in g.generators])
        assert alg.dim == 2
        assert alg.field_test() == (True, 4)

    def test_random_sets_against_brute_force(self):
        rng = random.Random(20240817)
        for _ in range(5):
            gens = [
                MatF(4, 4, tuple(rng.randrange(16) for _ in range(4)))
                for _ in range(2)
            ]
            alg = centralizer_basis(gens)
            brute = brute_force_commutant_4x4([m.rows for m in gens])
            assert len(brute) == 2**alg.dim
            assert all(alg._span.contains(MatF(4, 4, rows).vec()) for rows in brute)

    def test_dimension_conjugation_invariant(self):
        rng = random.Random(7)
        heart = build_heart(5)
        m = act(heart, Perm.parse("(1 2 3 4 5)", 5))
        base_dim = centralizer_basis([m]).dim
        for _ in range(5):
            while True:
                p = MatF(4, 4, tuple(rng.randrange(16) for _ in range(4)))
                if rref(p).rank == 4:
                    break
            pinv_entries = _invert_gf2(p)
            conj = pinv_entries @ m @ p
            assert centralizer_basis([conj]).dim == base_dim


@st.composite
def heart_actions(draw):
    """Heart matrices of a permutation group of degree 3..13.

    Transitive groups contain a relabelled n-cycle; intransitive ones
    preserve a split of the points into two nonempty parts.
    """
    n = draw(st.integers(3, 13))
    labels = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        cycle = [0] * n
        for i in range(n):
            cycle[labels[i]] = labels[(i + 1) % n]
        gens = [cycle] + draw(st.lists(st.permutations(range(n)), max_size=2))
    else:
        cut = draw(st.integers(1, n - 1))
        parts = labels[:cut], labels[cut:]
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            g = [0] * n
            for part in parts:
                for a, b in zip(part, draw(st.permutations(part))):
                    g[a] = b
            gens.append(g)
    heart = build_heart(n)
    return [act(heart, Perm(tuple(g))) for g in gens]


@st.composite
def matrix_tuples(draw):
    d = draw(st.integers(1, 8))
    rows = st.tuples(*[st.integers(0, (1 << d) - 1)] * d)
    return [MatF(d, d, r) for r in draw(st.lists(rows, min_size=1, max_size=3))]


def _heart_of(group_gens, n):
    heart = build_heart(n)
    return [act(heart, p) for p in group_gens]


class TestSpinningAgainstSylvester:
    """The spinning path returns the Sylvester kernel's echelon basis."""

    @given(st.one_of(heart_actions(), matrix_tuples()))
    @settings(max_examples=150, deadline=None)
    @example([MatF.identity(4)])
    @example(_heart_of([Perm.parse("(1 2 3 4 5)", 5)], 5))
    @example(_heart_of(fam.psl2(13).generators, 14))
    @example(_heart_of([Perm.parse("(1 2 3 4)(5 6 7 8)", 8)], 8))
    # three seeds: an involution's cyclic submodules have dimension <= 2 in d = 4
    @example(_heart_of([Perm.parse("(1 2)(3 4)(5 6)", 6)], 6))
    def test_same_echelon_basis(self, mats):
        spun = centralizer_basis(mats)
        assert spun._span.rows == sylvester_centralizer(mats)._span.rows

    def test_non_commuting_result_is_rejected(self, monkeypatch):
        # a spinning fault that returns the identity plus a non-commuting
        # idempotent still passes the closure check, so only the
        # commutation check can catch it
        e11 = MatF.from_entries([[1, 0], [0, 0]])
        monkeypatch.setattr(
            fflin, "_spin_commutant", lambda mats, d: [MatF.identity(2).vec(), e11.vec()]
        )
        with pytest.raises(ValueError, match="does not commute"):
            centralizer_basis([MatF.from_entries([[0, 1], [1, 0]])])


def _subalgebra(mats):
    return FSubalgebra(mats[0].nrows, [m.vec() for m in mats])


def _full_matrix_algebra(d):
    return FSubalgebra(d, [1 << u for u in range(d * d)], verified=True)


def _invert_gf2(p: MatF) -> MatF:
    n = p.nrows
    aug = MatF.from_entries(
        [
            [p.entry(i, j) for j in range(n)] + [1 if i == j else 0 for j in range(n)]
            for i in range(n)
        ],
    )
    e = rref(aug)
    inv_entries = [[e.matrix.entry(i, n + j) for j in range(n)] for i in range(n)]
    return MatF.from_entries(inv_entries)


class TestAlgebraClosure:
    def test_nilpotent_seed(self):
        e12 = MatF.from_entries([[0, 1], [0, 0]])
        alg = algebra_closure([e12])
        assert alg.dim == 2
        assert alg.field_test() == (False, None)
        assert alg.radical_dim == 1

    def test_psl2_7_heart_closures(self):
        """Group-algebra image dimensions on the two 6-dimensional hearts.

        Degree 8 (projective line): the heart splits into two inequivalent
        3-dimensional simples, so the image is M3 + M3 of dimension 18 and
        the double-centralizer identity holds.  Degree 7: the module is
        not semisimple in characteristic 2; the image has dimension 27,
        pinned by the independent full-group span computation.
        """
        from endocert.permgroup import families as fam

        g8 = fam.psl2(7)
        heart8 = build_heart(8)
        closure8 = algebra_closure([act(heart8, p) for p in g8.generators])
        assert closure8.dim == 18
        assert double_centralizer_check(closure8)

        g7 = fam.psl2_7_on_7_points()
        heart7 = build_heart(7)
        closure7 = algebra_closure([act(heart7, p) for p in g7.generators])
        assert closure7.dim == 27
        # independent: span of all 168 group-element matrices
        from endocert.fflin import _Span

        span = _Span()
        for t in g7.chain.elements():
            span.add(act(heart7, Perm(t)).vec())
        assert span.dim() == 27


class TestFieldTest:
    def test_scalars(self):
        alg = _subalgebra([MatF.identity(3)])
        assert alg.field_test() == (True, 2)

    def test_f4_by_companion(self):
        comp = MatF.from_entries([[0, 1], [1, 1]])
        alg = algebra_closure([comp])
        assert alg.field_test() == (True, 4)

    def test_product_of_fields_is_not_a_field(self):
        d = MatF.from_entries([[1, 0], [0, 0]])
        alg = algebra_closure([d])
        assert alg.dim == 2
        assert alg.radical_dim == 0
        assert alg.field_test() == (False, None)

    def test_noncommutative_is_not_a_field(self):
        alg = _full_matrix_algebra(2)
        assert alg.field_test() == (False, None)


class TestDoubleCentralizer:
    def test_full_algebra(self):
        assert double_centralizer_check(_full_matrix_algebra(2))

    def test_scalars_in_m3_f2(self):
        alg = _subalgebra([MatF.identity(3)])
        assert double_centralizer_check(alg)

    def test_c5_heart_group_algebra(self):
        heart = build_heart(5)
        m = act(heart, Perm.parse("(1 2 3 4 5)", 5))
        alg = algebra_closure([m])
        assert double_centralizer_check(alg)

    def test_rejects_visible_radical(self):
        e12 = MatF.from_entries([[0, 1], [0, 0]])
        alg = algebra_closure([e12])
        with pytest.raises(ValueError):
            double_centralizer_check(alg)


def test_closure_violation_fails_loudly():
    # a span that is not multiplicatively closed must be rejected
    e12 = MatF.from_entries([[0, 1], [0, 0]])
    e21 = MatF.from_entries([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        _subalgebra([MatF.identity(2), e12, e21])
