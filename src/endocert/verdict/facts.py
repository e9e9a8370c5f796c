"""Cited facts the engine consumes but never recomputes.

Each record carries the statement used and a citation into the standard
literature.  Every verdict that relies on one lists it in its checklist
with status "assumed"; the table is the single reviewable registry of
everything taken on faith.
"""

from __future__ import annotations

from typing import NamedTuple


class FactRecord(NamedTuple):
    key: str
    statement: str
    citation: str


_RECORDS = [
    FactRecord(
        key="jacobian-2-torsion-heart",
        statement=(
            "For y^2 = f(x) with f squarefree of degree n >= 3 over a field of "
            "characteristic != 2, the Galois module of 2-torsion points of the "
            "jacobian is isomorphic to the heart of the F_2 permutation module "
            "on the roots of f."
        ),
        citation="standard 2-descent description of hyperelliptic 2-torsion (Poonen; Schaefer)",
    ),
    FactRecord(
        key="klemm-criterion",
        statement=(
            "If a group acts doubly transitively on n points (n odd) or "
            "3-transitively (n even), the endomorphism algebra of the heart of "
            "the mod-2 permutation module is the scalar field F_2."
        ),
        citation="Klemm, Satz 4 (permutation modules over F_2)",
    ),
    FactRecord(
        key="mortimer-psl2-heart",
        statement=(
            "For PSL(2,q) on the projective line with q congruent to +-3 mod 8, "
            "the heart of the mod-2 permutation module is a simple module whose "
            "endomorphism algebra is the field with 4 elements."
        ),
        citation="Mortimer, permutation modules of the 2-transitive groups",
    ),
    FactRecord(
        key="suzuki-psl2-subgroups",
        statement=(
            "Every proper subgroup of PSL(2,q), q an odd prime power, has order "
            "dividing q-1, q+1, q(q-1)/2, 60, or (b+1)b(b-1) with q a power of b."
        ),
        citation="Suzuki, Group Theory I, theorem 6.25 (subgroups of PSL(2,q))",
    ),
    FactRecord(
        key="multiply-transitive-classification",
        statement=(
            "A transitive permutation group is determined among the known "
            "multiply transitive families by its degree, order and transitivity "
            "degree (degrees <= 24 relevant here)."
        ),
        citation="classification of multiply transitive groups (Atlas of Finite Groups; Dixon-Mortimer, Permutation Groups)",
    ),
    FactRecord(
        key="glq-conjugate-into-glz",
        statement="Every finite subgroup of GL(n,Q) is conjugate to a subgroup of GL(n,Z).",
        citation="Serre, lemma on integral models of finite linear groups",
    ),
    FactRecord(
        key="minkowski-serre-torsion",
        statement=(
            "For an odd prime q the reduction kernel GL(n,Z_q) -> GL(n,F_q) is "
            "torsion-free; for q = 2 its periodic elements have order at most 2."
        ),
        citation="Minkowski; Serre's letter lemma on torsion of congruence kernels",
    ),
    FactRecord(
        key="quaternion-embeds-gl2-qq",
        statement=(
            "The units of the rational quaternion algebra ramified exactly at p "
            "and infinity embed into GL(2, Q_q) for a suitable odd prime q (q = 2 "
            "works when p != 2), and every finite subgroup there is conjugate "
            "into GL(2, Z_q)."
        ),
        citation="splitting of quaternion algebras at unramified places; compactness of GL(2,Z_q)",
    ),
    FactRecord(
        key="quaternion-units-no-perfect",
        statement=(
            "The unit group of a quaternion division algebra with center Q "
            "contains no perfect finite subgroup: in the indefinite case finite "
            "subgroups land in GL(2,R), hence are cyclic or dihedral; in the "
            "definite case they land in the Hamilton units, where the only "
            "perfect finite subgroup is binary icosahedral, whose rational span "
            "is a quaternion algebra with center Q(sqrt 5), not Q."
        ),
        citation="finite subgroups of definite quaternion units (binary polyhedral classification); compact-subgroup argument for GL(2,R)",
    ),
    FactRecord(
        key="an-jacobian-trivial-endo",
        statement=(
            "For n >= 5 and Galois group the full alternating group on the n "
            "roots, the jacobian of y^2 = f(x) has endomorphism ring Z; in "
            "characteristic 3 this is asserted only for n >= 7."
        ),
        citation="published case analysis of jacobians with alternating Galois group",
    ),
    FactRecord(
        key="a5-char3-supersingular-example",
        statement=(
            "In characteristic 3 there exist degree-5 polynomials with Galois "
            "group A_5 whose jacobian is supersingular, so the supersingular "
            "branch cannot be removed there."
        ),
        citation="published characteristic-3 example in the same case analysis",
    ),
    FactRecord(
        key="deg7-psl2-not-supersingular",
        statement=(
            "For n = 7 with Galois group PSL(2,7) acting 2-transitively on the "
            "roots, the jacobian is not supersingular in any characteristic "
            "distinct from 2."
        ),
        citation="published supersingularity exclusion for the degree-7 case",
    ),
    FactRecord(
        key="deg11-supersingular-excluded",
        statement=(
            "For n = 11 with Galois group PSL(2,11): a supersingular jacobian "
            "would force a quaternionic direct summand of the rational group "
            "algebra of SL(2,11); the unique candidate character (degree 10, "
            "theta_3) yields a summand ramified at 2, impossible for odd "
            "characteristic.  Q[PSL(2,11)] itself splits into matrix algebras "
            "over fields."
        ),
        citation="rational representations of SL(2,11) (Janusz; Feit, Th. 6.1-6.2 on Schur indices)",
    ),
    FactRecord(
        key="mathieu-deg11-12-trivial-endo",
        statement=(
            "For n in {11, 12} with the corresponding multiply transitive "
            "Mathieu action (M11 of degree 11 arising as a one-point stabilizer "
            "of the degree-12 cases), the jacobian has endomorphism ring Z in "
            "every characteristic distinct from 2."
        ),
        citation="published small-Mathieu case analysis",
    ),
    FactRecord(
        key="atlas-m22-simple",
        statement="M22 is a simple nonabelian group of order 443520.",
        citation="Atlas of Finite Groups (M22)",
    ),
    FactRecord(
        key="atlas-m23-simple",
        statement="M23 is a simple nonabelian group of order 10200960.",
        citation="Atlas of Finite Groups (M23)",
    ),
    FactRecord(
        key="atlas-m24-simple",
        statement="M24 is a simple nonabelian group of order 244823040.",
        citation="Atlas of Finite Groups (M24)",
    ),
    FactRecord(
        key="m23-quaternion-excluded",
        statement=(
            "No matrix algebra M_11(H) over a definite rational quaternion "
            "algebra can be the endomorphism algebra in the degree-23 Mathieu "
            "case: the Schur multiplier of M23 is trivial, its smallest "
            "nontrivial characteristic-zero representation has dimension 22, "
            "Feit-Tits forces the would-be projective 22-dimensional "
            "representation to come from a central extension isomorphic to M23 "
            "itself, and all Schur indices of M23 equal 1, so Q[M23] is a sum "
            "of matrix algebras over fields with no quaternionic summand."
        ),
        citation="Atlas of Finite Groups (M23: multiplier, character degrees); Feit-Tits, projective representations; Feit, Schur indices",
    ),
    FactRecord(
        key="m24-quaternion-excluded",
        statement=(
            "No matrix algebra M_11(H) over a definite rational quaternion "
            "algebra can arise in the degree-24 Mathieu case: the Schur "
            "multiplier of M24 is trivial and its smallest nontrivial linear "
            "representation has dimension 23, so by Feit-Tits the required "
            "nontrivial projective representation of dimension 22 cannot exist."
        ),
        citation="Atlas of Finite Groups (M24: multiplier, character degrees); Feit-Tits, projective representations",
    ),
    FactRecord(
        key="m22-q-matrix-excluded",
        statement=(
            "Every homomorphism from a perfect group covering M22 to PGL(10,R) "
            "is trivial; since GL(d,Q) embeds into GL(10,R) for d <= 10, no "
            "matrix algebra M_d(Q) with d > 1 dividing 10, and no quaternionic "
            "M_d(H) with H unramified at infinity or with 4d <= 10, can occur "
            "in the degree-22 Mathieu case."
        ),
        citation="published lemma on real projective representations of M22 covers",
    ),
    FactRecord(
        key="hom-vanishing-escape",
        statement=(
            "Under the transitivity and disjointness hypotheses, either every "
            "homomorphism between the two jacobians vanishes (in both "
            "directions), or the characteristic is positive and both jacobians "
            "are supersingular abelian varieties."
        ),
        citation="statement of the vanishing theorem for jacobian pairs with independent big Galois images",
    ),
    FactRecord(
        key="no-definite-quaternion-surface",
        statement=(
            "There is no abelian surface whose endomorphism algebra is a "
            "definite quaternion algebra over Q, in any characteristic."
        ),
        citation="char 0: classical (Shimura; see also OZ); char p: Oort, Lemma 4.5",
    ),
    FactRecord(
        key="m22-no-20dim-cover-rep",
        statement=(
            "No perfect central extension of M22 by a cyclic group of order 1 "
            "or 2 has a faithful absolutely irreducible 20-dimensional "
            "representation in characteristic zero."
        ),
        citation="Atlas of Finite Groups (character tables of M22 and 2.M22)",
    ),
    FactRecord(
        key="deg22-supersingular-excluded",
        statement=(
            "The supersingular branch is excluded in the degree-22 Mathieu "
            "case: it would force (via the mod-2 representation theory of M22, "
            "11 not dividing |GL(9,F_2)|) a perfect central extension of M22 "
            "with a 20-dimensional irreducible representation, which does not "
            "exist."
        ),
        citation="published reduction theorem for supersingular jacobians, combined with Atlas character data",
    ),
]

FACTS: dict[str, FactRecord] = {r.key: r for r in _RECORDS}


def fact(key: str) -> FactRecord:
    return FACTS[key]
