import random

import pytest
from hypothesis import given, settings, strategies as st

from endocert.fflin import (
    FSubalgebra,
    MatF,
    algebra_closure,
    centralizer_basis,
    double_centralizer_check,
    format_matrix,
    kernel,
    rank,
    rref,
)
from endocert.permgroup import Perm
from endocert.repmod import act, build_heart
from oracles import brute_force_commutant_4x4, dense_rref_mod_p, subalgebra_elements


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
        z = MatF.zeros(2, 3)
        assert rank(z) == 0
        assert kernel(z) == [1, 2, 4]

    def test_five_cycle_heart_matrix_invertible(self):
        heart = build_heart(5)
        m = act(heart, Perm.parse("(1 2 3 4 5)", 5))
        assert rank(m) == 4

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
        rows, r, pivots = dense_rref_mod_p(m.to_entries(), 2)
        assert e.rank == r
        assert tuple(e.pivots) == tuple(pivots)
        assert e.matrix.to_entries() == [[x % 2 for x in row] for row in rows]

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
            assert all(alg.contains(MatF(4, 4, rows)) for rows in brute)

    def test_dimension_conjugation_invariant(self):
        rng = random.Random(7)
        heart = build_heart(5)
        m = act(heart, Perm.parse("(1 2 3 4 5)", 5))
        base_dim = centralizer_basis([m]).dim
        for _ in range(5):
            while True:
                p = MatF(4, 4, tuple(rng.randrange(16) for _ in range(4)))
                if rank(p) == 4:
                    break
            pinv_entries = _invert_gf2(p)
            conj = pinv_entries @ m @ p
            assert centralizer_basis([conj]).dim == base_dim


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
        for el in g7.elements():
            span.add(act(heart7, el).vec())
        assert span.dim() == 27


class TestFieldTest:
    def test_scalars(self):
        alg = FSubalgebra.from_matrices([MatF.identity(3)])
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
        alg = FSubalgebra.full_matrix_algebra(2)
        assert alg.field_test() == (False, None)


class TestDoubleCentralizer:
    def test_full_algebra(self):
        assert double_centralizer_check(FSubalgebra.full_matrix_algebra(2))

    def test_scalars_in_m3_f2(self):
        alg = FSubalgebra.from_matrices([MatF.identity(3)])
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
        FSubalgebra.from_matrices([MatF.identity(2), e12, e21])
