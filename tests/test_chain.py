"""The stabilizer chain against the construction as first written.

`oracles.reference_chain` inverts a representative on every sift step and
rescans every level's generators after each new strong generator; the
production chain stores inverse transversals and per-level generator ids.
Both must build the same chain: the same strong generators with the same
home levels in the same order, and the same orbits and transversals.
"""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from endocert.permgroup import Perm, StabilizerChain, families as fam
from endocert.permgroup import chain as chain_module
from endocert.permgroup import perms as perms_module
from endocert.permgroup import structure, subsearch
from endocert.permgroup.perms import _invert, parse_generators
from oracles import reference_chain

GROUP_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"
GROUP_FILES = sorted(GROUP_DIR.glob("*.txt"))

FAMILIES = [
    ("C7", lambda: fam.cyclic_group(7)),
    ("C12", lambda: fam.cyclic_group(12)),
    ("D9", lambda: fam.dihedral_group(9)),
    ("S2", lambda: fam.symmetric_group(2)),
    ("S7", lambda: fam.symmetric_group(7)),
    ("S10", lambda: fam.symmetric_group(10)),
    ("A6", lambda: fam.alternating_group(6)),
    ("A9", lambda: fam.alternating_group(9)),
    ("AGL1(11) subgroup", lambda: fam.affine_group_of_prime(11, 3)),
    ("F20", fam.frobenius_group_20),
    ("F21", fam.frobenius_group_21),
    ("F42", fam.frobenius_group_42),
    ("PSL2(8)", lambda: fam.psl2(8)),
    ("PSL2(13)", lambda: fam.psl2(13)),
    ("PSL2(25)", lambda: fam.psl2(25)),
    *((f"M{n}", lambda n=n: fam.mathieu_group(n)) for n in (11, 12, 22, 23, 24)),
    ("PSL2(7) deg 7", fam.psl2_7_on_7_points),
    ("PSL2(11) deg 11", fam.psl2_11_on_11_points),
    ("A7 deg 15", fam.a7_on_15_points),
    ("GL(2,2) regular", lambda: fam.gl2_regular(2)),
    ("GL(2,3) regular", lambda: fam.gl2_regular(3)),
]


def assert_same_chain(chain: StabilizerChain, ref) -> None:
    assert chain._strong == ref._strong
    assert len(chain.levels) == len(ref.levels)
    for level, ref_level in zip(chain.levels, ref.levels):
        assert level.orbit == ref_level.orbit
        assert level.transversal == ref_level.transversal
        assert level.inverse == {pt: _invert(u) for pt, u in level.transversal.items()}


def _build_both(degree, gens):
    gens = [tuple(g) for g in gens]
    return StabilizerChain.build(degree, gens), reference_chain(degree, gens)


@pytest.mark.parametrize("name,build", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_family_chain_matches_reference(name, build):
    group = build()
    assert_same_chain(*_build_both(group.degree, [g.images for g in group.generators]))


@pytest.mark.parametrize("path", GROUP_FILES, ids=[p.stem for p in GROUP_FILES])
def test_bench_generator_file_chain_matches_reference(path):
    text = path.read_text()
    degree = max(int(tok) for tok in re.findall(r"\d+", re.sub(r"#.*", "", text)))
    gens = parse_generators(text, degree)
    assert_same_chain(*_build_both(degree, [g.images for g in gens]))


def _relabel(images, sigma):
    """sigma g sigma^-1 on raw image tuples: point sigma(i) goes to sigma(g(i))."""
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[sigma[i]] = sigma[j]
    return tuple(out)


_SMALL_TWO_GENERATOR = [
    fam.dihedral_group(6), fam.frobenius_group_21(), fam.psl2(7),
    fam.psl2_7_on_7_points(), fam.mathieu_group(11), fam.alternating_group(8),
]


@st.composite
def relabelled_two_generator(draw):
    """Two random permutations of degree 3..15, or a small family group's
    two generators, conjugated by a random relabelling of the points."""
    if draw(st.booleans()):
        group = draw(st.sampled_from(_SMALL_TWO_GENERATOR))
        n, gens = group.degree, [g.images for g in group.generators]
    else:
        n = draw(st.integers(3, 15))
        gens = [tuple(draw(st.permutations(range(n)))) for _ in range(2)]
    sigma = tuple(draw(st.permutations(range(n))))
    return n, [_relabel(g, sigma) for g in gens]


@settings(max_examples=60, deadline=None)
@given(relabelled_two_generator())
@example((5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]))
@example((15, [_relabel(g.images, tuple(range(14, -1, -1)))
               for g in fam.a7_on_15_points().generators]))
@example((12, [(1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10), (2, 3, 4, 5, 0, 1, 8, 9, 10, 11, 6, 7)]))
def test_random_relabelled_chain_matches_reference(case):
    n, gens = case
    assert_same_chain(*_build_both(n, gens))


CLOSURES = [
    ("S6 from a 3-cycle", lambda: fam.symmetric_group(6), "(1 2 3)"),
    ("M11 from an involution", lambda: fam.mathieu_group(11), None),
    ("A7 deg 15 from a generator", fam.a7_on_15_points, None),
    ("AGL1(13) from a translation", lambda: fam.affine_group_of_prime(13, 2),
     "(1 2 3 4 5 6 7 8 9 10 11 12 13)"),
    ("PSL2(13) from a generator", lambda: fam.psl2(13), None),
]


@pytest.mark.parametrize("name,build,seed", CLOSURES, ids=[c[0] for c in CLOSURES])
def test_normal_closure_chain_matches_reference(name, build, seed):
    """`normal_closure` grows its chain by `add_generator`; replaying its
    generators one by one into the reference gives the same chain."""
    group = build()
    seeds = [Perm.parse(seed, group.degree)] if seed else [group.generators[-1]]
    closure = structure.normal_closure(group, seeds)
    ref = reference_chain(group.degree, [g.images for g in closure.generators])
    assert_same_chain(closure.chain, ref)


# -- work-count guards ---------------------------------------------------------


def test_m24_build_inverts_each_transversal_entry_at_most_once(monkeypatch):
    calls = []

    def counting(p):
        calls.append(1)
        return _invert(p)

    monkeypatch.setattr(chain_module, "_invert", counting)
    monkeypatch.setattr(perms_module, "_invert", counting)
    m24 = fam.mathieu_group(24)
    chain = StabilizerChain.build(24, [g.images for g in m24.generators])
    assert chain.order() == 244823040
    assert len(calls) <= sum(len(level.orbit) for level in chain.levels)


def test_order_dividing_enumeration_builds_no_perm(monkeypatch):
    expected = {
        d: tuple(p for p in itertools.permutations(range(7)) if d % Perm(p).order() == 0)
        for d in (1, 2, 3, 4, 6)
    }

    def refuse(self, images):
        raise AssertionError("Perm built while enumerating")

    monkeypatch.setattr(Perm, "__init__", refuse)
    for d, perms in expected.items():
        assert subsearch._perms_of_order_dividing.__wrapped__(7, d) == perms


# -- read-only sub-chains ------------------------------------------------------


def test_point_stabilizer_chain_refuses_new_generators():
    group = fam.mathieu_group(11)
    stabilizer = group.point_stabilizer()
    sub = stabilizer.chain
    strong = list(sub._strong)
    with pytest.raises(ValueError):
        sub.add_generator(group.generators[0].images)
    with pytest.raises(ValueError):
        sub.add_generator(tuple(range(group.degree)))
    assert sub._strong == strong
    assert (sub.order(), group.chain.order()) == (720, 7920)
