"""The theorem engine: hypothesis checking and verdict emission.

Every analysis verifies, computation by computation, the finitely
checkable hypotheses of the endomorphism-algebra theorems it applies
(transitivity, heart centralizer, subgroup-index conditions, simplicity,
perfectness, integral order obstructions), consumes registered cited
facts for everything that cannot be recomputed at desk scale, and emits a
verdict from a closed outcome set together with the full checklist.  The
engine never extrapolates beyond the encoded theorems: anything it cannot
justify becomes INCONCLUSIVE naming the first failed or unknown
hypothesis.  Families supply their cited facts to the one generic route
through the ``_FAMILY_FACTS`` table; only A_n, the degree-12 reduction and
PSL(2,q) on the projective line with q = +-3 (mod 8) keep rules of their own.

Immutable records are named tuples and mutable ones plain classes;
``Verdict`` checks its checklist in ``__init__``.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from typing import Literal, NamedTuple, Optional

from ..arith import factorize, is_odd_prime_power, is_prime
from ..errors import InternalInconsistencyError
from ..permgroup import (
    PermGroup,
    has_proper_subgroup_of_index,
    is_simple,
    psl2_subgroup_criterion,
)
from ..permgroup.families import MATHIEU_ORDERS
from ..permgroup.structure import TriState
from ..polygal import (
    DEFAULT_PRIME_BUDGET,
    MATCH_THRESHOLD,
    CycleTypeCensus,
    GroupHypothesis,
    IntPoly,
    census,
    identify,
    is_squarefree,
    joint_census,
    standard_candidates,
)
from ..repmod import CentralizerClass, CentralizerReport, heart_centralizer, required_transitivity
from .facts import FactRecord, fact
from .glz import gl_has_element_of_order

SCHEMA_VERSION = 1

#: How every heart commutant in a checklist was computed (fflin.centralizer_basis).
_COMMUTANT_METHOD = "computed: commutant by spinning unit vectors over F_2"

#: How route 1 decided its escape indices (_Ctx.no_proper_subgroup_of_index).
_ESCAPE_METHOD = "computed: bounded subgroup search / simplicity descent"

#: The simplicity hypothesis, computed in _refine_center_q or cited by a rule.
_SIMPLE_HYPOTHESIS = "group is simple nonabelian (hence quasi-simple with trivial center)"

Status = Literal["verified", "failed", "assumed", "heuristic", "unknown"]


class Outcome(str, Enum):
    END_IS_Z = "END_IS_Z"
    END0_SIMPLE_Q_ALGEBRA = "END0_SIMPLE_Q_ALGEBRA"
    END0_MATRIX_OVER_Q = "END0_MATRIX_OVER_Q"
    SUPERSINGULAR_POSSIBLE = "SUPERSINGULAR_POSSIBLE"
    PRODUCT_OF_ELLIPTIC_CURVES_POSSIBLE = "PRODUCT_OF_ELLIPTIC_CURVES_POSSIBLE"
    HOM_VANISHES = "HOM_VANISHES"
    INCONCLUSIVE = "INCONCLUSIVE"


class ChecklistEntry(NamedTuple):
    hypothesis: str
    status: Status
    citation: str
    evidence: str


class Verdict:
    """An outcome and its checklist.  ``heart_commutant``, kept for
    ``--dump-centralizer`` when a rule computed it, is not in the report."""

    def __init__(self, outcome: Outcome, checklist: list[ChecklistEntry],
                 caveats: Optional[list[str]] = None,
                 supersingular_chars: Optional[frozenset[int]] = None, conditional: bool = False,
                 case: Optional[dict] = None, heart_commutant: Optional[CentralizerReport] = None):
        self.outcome, self.checklist = outcome, checklist
        self.caveats = [] if caveats is None else caveats
        self.supersingular_chars, self.conditional = supersingular_chars, conditional
        self.case = {} if case is None else case
        self.heart_commutant = heart_commutant
        if outcome is Outcome.END_IS_Z:
            bad = [e for e in checklist if e.status in ("failed", "unknown")]
            if bad:
                raise InternalInconsistencyError(
                    "END_IS_Z emitted with failed/unknown hypotheses: "
                    + "; ".join(e.hypothesis for e in bad)
                )
        for e in checklist:
            if not e.citation:
                raise InternalInconsistencyError(
                    f"checklist entry without citation: {e.hypothesis}"
                )

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "outcome": self.outcome.value,
            "supersingular_chars": (
                sorted(self.supersingular_chars) if self.supersingular_chars else None
            ),
            "conditional": self.conditional,
            "case": self.case,
            "checklist": [e._asdict() for e in self.checklist],
            "caveats": list(self.caveats),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def render_text(self) -> str:
        lines = [f"outcome: {self.outcome.value}"]
        if self.supersingular_chars:
            lines[0] += f"  (characteristics {sorted(self.supersingular_chars)})"
        if self.conditional:
            lines.append("status: conditional on the heuristic Galois-group identification")
        else:
            lines.append("status: group supplied; group-theoretic hypotheses proved")
        if self.case:
            lines.append("case: " + ", ".join(f"{k}={v}" for k, v in sorted(self.case.items())))
        lines.append("checklist:")
        for e in self.checklist:
            lines.append(f"  [{e.status:>8}] {e.hypothesis}")
            lines.append(f"             source: {e.citation}")
            if e.evidence:
                lines.append(f"             evidence: {e.evidence}")
        for c in self.caveats:
            lines.append(f"caveat: {c}")
        return "\n".join(lines)


def _entry(hypothesis: str, status: Status, citation: str, evidence: str = "") -> ChecklistEntry:
    return ChecklistEntry(hypothesis, status, citation, evidence)


def _fact_entry(hypothesis: str, record: FactRecord) -> ChecklistEntry:
    return ChecklistEntry(hypothesis, "assumed", record.citation, record.statement)


# -- case input ----------------------------------------------------------------


class CaseInput:
    """One jacobian case: a group with its degree, or a matched polynomial."""

    def __init__(self, group: PermGroup, degree: int, char: int,
                 polynomial: Optional[IntPoly] = None,
                 hypothesis: Optional[GroupHypothesis] = None):
        self.group, self.degree, self.char = group, degree, char
        self.polynomial, self.hypothesis = polynomial, hypothesis

    @property
    def conditional(self) -> bool:
        return self.hypothesis is not None

    def describe(self) -> dict:
        out = {
            "degree": self.degree,
            "characteristic": self.char,
            "group": self.group.name or "supplied group",
            "group_order": str(self.group.order()),
        }
        if self.polynomial is not None:
            out["polynomial"] = str(self.polynomial)
        if self.hypothesis is not None:
            out["identification_confidence"] = f"{self.hypothesis.confidence:.6g}"
        return out


def case_from_group(group: PermGroup, char: int) -> CaseInput:
    _validate_char(char)
    return CaseInput(group=group, degree=group.degree, char=char)


def case_from_polynomial(
    f: IntPoly,
    char: int,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
) -> tuple[Optional[CaseInput], CycleTypeCensus, list[GroupHypothesis]]:
    """Census + identification; the case is None when nothing matched."""
    _validate_char(char)
    if not is_squarefree(f):
        raise ValueError("polynomial must be squarefree")
    sample = census(f, prime_budget)
    hyps = identify(sample, standard_candidates(f.degree))
    matched = [h for h in hyps if h.matched]
    if not matched:
        return None, sample, hyps
    best = matched[0]
    case = CaseInput(
        group=best.group,
        degree=f.degree,
        char=char,
        polynomial=f,
        hypothesis=best,
    )
    return case, sample, hyps


def unidentified_verdict(f: IntPoly, char: int) -> Verdict:
    """The verdict for a polynomial whose census matched no candidate group."""
    entry = _entry(
        "Galois group identified from the cycle-type census",
        "unknown",
        "computed: degree-partition census",
        "no candidate matched; supply the group with group-check",
    )
    return Verdict(
        Outcome.INCONCLUSIVE,
        [entry],
        ["inconclusive: no Galois-group candidate matched the census"],
        conditional=True,
        case={"polynomial": str(f), "characteristic": char},
    )


def _validate_char(char: int) -> None:
    if char == 2:
        raise ValueError("characteristic 2 is outside the scope of these analyses")
    if char < 0 or char == 1:
        raise ValueError("characteristic must be 0 or an odd prime")
    if char > 0 and not is_prime(char):
        raise ValueError(f"characteristic {char} is not prime")


def _validate_degree(n: int) -> None:
    if n < 3:
        raise ValueError("need at least 3 roots")
    if n == 4:
        raise ValueError("degree 4 is refused: the heart action is not faithful")


# -- group recognition -----------------------------------------------------------


class Recognition(NamedTuple):
    kind: str
    label: str


def recognize(group: PermGroup) -> Recognition:
    """Identify the group among the engine's known multiply transitive families.

    Degree, order and transitivity pin the family by the classification of
    multiply transitive groups; the match is recorded in checklists as a
    cited identification.
    """
    n, order = group.degree, group.order()
    trans = group.transitivity_degree()
    if order == math.factorial(n):
        return Recognition("symmetric", f"S{n}")
    if order == math.factorial(n) // 2 and all(g.is_even() for g in group.generators):
        return Recognition("alternating", f"A{n}")
    if n in MATHIEU_ORDERS and order == MATHIEU_ORDERS[n] and trans >= 3:
        return Recognition(f"mathieu{n}", f"M{n}")
    if n == 12 and order == 7920 and trans >= 3:
        return Recognition("mathieu11-deg12", "M11 (degree 12)")
    if n == 11 and order == 660 and trans >= 2:
        return Recognition("psl2-11-deg11", "PSL(2,11) (degree 11)")
    if n == 7 and order == 168 and trans >= 2:
        return Recognition("psl2-7-deg7", "PSL(2,7) (degree 7)")
    if n == 15 and order == 2520 and trans >= 2:
        return Recognition("a7-deg15", "A7 (degree 15)")
    q = n - 1
    if is_odd_prime_power(q) and q >= 5 and order == (q + 1) * q * (q - 1) // 2 and trans >= 2:
        return Recognition("psl2-natural", f"PSL(2,{q}) (projective line)")
    return Recognition("generic", group.name or f"degree-{n} group")


# -- per-case computation context --------------------------------------------------


class _Ctx:
    """Memoized hypothesis computations on one group, plus a cited simplicity.

    One is built per analysed group and handed to every rule.  A rule that
    cites the group's simplicity sets ``cited_simple`` and records that
    fact's checklist entry itself, before any entry that relies on it; the
    citation lives on this per-call context, never on the group.
    """

    def __init__(self, group: PermGroup):
        self.group = group
        self._index_cache: dict[int, TriState] = {}
        self.cited_simple: Optional[FactRecord] = None
        self._centralizer: Optional[CentralizerReport] = None

    def centralizer(self) -> CentralizerReport:
        if self._centralizer is None:
            self._centralizer = heart_centralizer(self.group)
        return self._centralizer

    def simple(self) -> TriState:
        return True if self.cited_simple is not None else is_simple(self.group)

    def no_proper_subgroup_of_index(self, m: int) -> TriState:
        """True here means NO proper subgroup of index m exists.

        A cited simple group has none when its order does not divide m!, as
        it would act faithfully on the m cosets: the theorem behind
        subsearch._descent_applies.  Anything else asks the search.
        """
        if self.cited_simple is not None and math.factorial(m) % self.group.order() != 0:
            return True
        if m not in self._index_cache:
            ans, _cert, _method = has_proper_subgroup_of_index(self.group, m)
            self._index_cache[m] = (not ans) if ans in (True, False) else "unknown"
        return self._index_cache[m]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _escape_indices(g: int) -> dict[int, list[int]]:
    """Map m -> list of r with r | g, r > 1, m = r / 2^j > 1.

    These are the subgroup indices whose absence defeats the
    product-decomposition escape clauses at the prime 2 (conservative
    reading: any j >= 0 counts).
    """
    out: dict[int, list[int]] = {}
    for r in _divisors(g):
        if r == 1:
            continue
        m = r
        while m > 1:
            out.setdefault(m, []).append(r)
            if m % 2:
                break
            m //= 2
    return out


# -- center analysis ---------------------------------------------------------------


class CenterAnalysis:
    """What the centralizer plus subgroup structure imply about the center.

    ``live_product_dims`` are the possible g/r dimensions if escapes are
    live; ``blocked`` names the first failed or unknown hypothesis, if any.
    """

    def __init__(self, report: CentralizerReport, entries: list[ChecklistEntry],
                 center_is_field: TriState, center_is_q: TriState,
                 live_product_dims: list[int], blocked: Optional[str] = None):
        self.report, self.entries, self.blocked = report, entries, blocked
        self.center_is_field, self.center_is_q = center_is_field, center_is_q
        self.live_product_dims = live_product_dims


def _scan_escapes(ctx: _Ctx, escapes: dict[int, list[int]]) -> tuple[set[int], Optional[int]]:
    """Ask about each escape index m, ascending: (live r values, first undecided m).

    An m realized by a proper subgroup makes its r values live; the scan
    stops at the first m the search cannot decide.
    """
    live_rs: set[int] = set()
    for m in sorted(escapes):
        ans = ctx.no_proper_subgroup_of_index(m)
        if ans == "unknown":
            return live_rs, m
        if ans is False:
            live_rs.update(escapes[m])
    return live_rs, None


def _center_analysis(ctx: _Ctx) -> CenterAnalysis:
    """Centralizer-driven analysis of the center of the endomorphism algebra.

    Route 1 (field commutant): if no proper subgroup realizes the
    2-power-adjusted escape indices r/2^j for r dividing the genus, the
    center of the endomorphism algebra is a field.  Route 2 (scalar
    commutant): with no index-2 subgroup the center is Q itself unless an
    escape is live, in which case a product decomposition remains
    possible.  Its hypothesis that no proper normal subgroup has index
    dividing the genus needs no search of its own: route 1 asked every
    such index, and a simple group has none.  The genus is read off the
    group's degree n as (n - 1) // 2.
    """
    _validate_degree(ctx.group.degree)
    g = (ctx.group.degree - 1) // 2
    report = ctx.centralizer()
    entries: list[ChecklistEntry] = []
    if report.classification is CentralizerClass.SCALARS:
        desc = "the scalar field F_2"
    elif report.classification is CentralizerClass.FIELD:
        desc = f"a field with {report.field_size} elements"
    else:
        desc = f"a {report.dim}-dimensional non-field algebra"
    entries.append(
        _entry(
            "commutant of the mod-2 Galois image on the heart computed",
            "verified",
            _COMMUTANT_METHOD,
            f"dimension {report.dim}; {desc}",
        )
    )
    if report.classification is CentralizerClass.NON_FIELD:
        entries.append(
            _entry(
                "commutant of the mod-2 image is a field",
                "failed",
                "computed: Frobenius-kernel field test",
                desc,
            )
        )
        return CenterAnalysis(report, entries, "unknown", "unknown", [], blocked="commutant is not a field")

    # Route 1: field commutant forces the center to be a field unless an
    # escape index is realized by a proper subgroup.
    escapes = _escape_indices(g)
    live_rs, undecided = _scan_escapes(ctx, escapes)
    if undecided is not None:
        blocked = f"subgroup of index {undecided} undecided"
        entries.append(
            _entry(
                "no proper subgroup realizes an escape index r/2^j with r dividing the genus",
                "unknown",
                "bounded subgroup search",
                blocked,
            )
        )
        return CenterAnalysis(report, entries, "unknown", "unknown", [], blocked=blocked)
    if not live_rs:
        entries.append(
            _entry(
                "no proper subgroup of index r/2^j > 1 for any r > 1 dividing the genus",
                "verified",
                _ESCAPE_METHOD,
                f"escape indices checked: {sorted(escapes) or 'none'}",
            )
        )
        center_is_field: TriState = True
    else:
        entries.append(
            _entry(
                "escape indices realized by proper subgroups; a product decomposition is possible",
                "verified",
                "computed: bounded subgroup search",
                f"live r values {sorted(live_rs)}",
            )
        )
        center_is_field = "unknown"

    center_is_q: TriState = "unknown"
    live_product_dims = sorted({g // r for r in live_rs})
    if report.classification is CentralizerClass.SCALARS:
        no_idx2 = ctx.no_proper_subgroup_of_index(2)
        st2: Status = "verified" if no_idx2 is True else ("failed" if no_idx2 is False else "unknown")
        entries.append(
            _entry(
                "no subgroup of index 2",
                st2,
                "computed: subgroup search / simplicity",
                "",
            )
        )
        if no_idx2 is True:
            # route 1 asked every r | g, r > 1, as m = r, so with no escape
            # live no proper subgroup, normal or not, has index dividing g;
            # and with no index-2 subgroup every live r exceeds 2
            no_norm = not live_rs or ctx.simple() is True
            entries.append(
                _entry(
                    "only normal subgroup of index dividing the genus is the group itself",
                    "verified" if no_norm else "unknown",
                    "computed: escape-index search / simplicity",
                    f"genus {g}",
                )
            )
            if not live_rs:
                center_is_q = True
                entries.append(
                    _entry(
                        "center of the endomorphism algebra is Q",
                        "verified",
                        "center-rationality theorem for scalar commutant",
                        "scalar commutant, no index-2 subgroup, no small normal subgroup, no escape index realized",
                    )
                )
            else:
                entries.append(
                    _entry(
                        "product-decomposition escape (r > 2 dividing the genus) is live",
                        "verified",
                        "computed: bounded subgroup search",
                        f"live r values {sorted(live_rs)}; possible factors of dimension {live_product_dims}",
                    )
                )
    return CenterAnalysis(report, entries, center_is_field, center_is_q, live_product_dims)

# -- refinements once the center is known rational -----------------------------------


class _Survivor:
    def __init__(self, algebra: str, d: int, factor_dim: int):
        self.algebra, self.d, self.factor_dim = algebra, d, factor_dim  # algebra "Q" or "H"


def _hp_units_solvable_entries() -> list[ChecklistEntry]:
    """Lemma chain: finite subgroups of the units of H_p are solvable.

    The two solvability inputs are recomputed on the spot (regular-action
    derived series of GL(2,F_2) and GL(2,F_3)); the reduction-kernel and
    embedding steps are cited facts.
    """
    from ..permgroup import families as fam
    from ..permgroup.structure import is_solvable

    entries = []
    for q in (2, 3):
        grp = fam.gl2_regular(q)
        solv = is_solvable(grp)
        if not solv:
            raise InternalInconsistencyError(f"GL(2,F_{q}) computed non-solvable")
        entries.append(
            _entry(
                f"GL(2,F_{q}) is solvable (order {grp.order()})",
                "verified",
                "computed: derived series of the regular permutation action",
                "derived series reaches the trivial group",
            )
        )
    entries.append(
        _fact_entry(
            "reduction kernels contribute only 2-torsion",
            fact("minkowski-serre-torsion"),
        )
    )
    entries.append(
        _fact_entry(
            "units of the p-and-infinity quaternion algebra land in GL(2, Z_q) up to conjugacy",
            fact("quaternion-embeds-gl2-qq"),
        )
    )
    entries.append(
        _entry(
            "every finite subgroup of the units of H_p is solvable",
            "verified",
            "derived from the computed solvability plus the cited reduction facts",
            "so no perfect subgroup lives there",
        )
    )
    return entries


def _refine_center_q(
    ctx: _Ctx, char: int, entries: list[ChecklistEntry], facts: _FamilyFacts
) -> list[_Survivor]:
    """Exclude matrix-algebra shapes M_d(Q) and M_d(H); return survivors.

    Requires the center already proved rational.  Q-side exclusions use
    the integral order obstruction (an order-q element of the perfect
    preimage would have to live in GL(d, Z)); quaternion exclusions use
    the parity of factor dimensions, ramification confinement, unit-group
    structure, and finally the family's cited quaternion exclusion for
    whatever remains.
    """
    order = ctx.group.order()
    g = (ctx.group.degree - 1) // 2
    survivors: list[_Survivor] = []
    quasi_simple = ctx.simple() is True  # trivial center throughout this engine
    if quasi_simple and ctx.cited_simple is None:
        entries.append(
            _entry(
                _SIMPLE_HYPOTHESIS,
                "verified",
                "computed: normal closures of conjugacy-class representatives",
                f"order {order}",
            )
        )
    primes = list(factorize(order))

    # Q-matrix side: d > 1 dividing g
    if facts.q_side is not None:
        entries.append(
            _fact_entry("matrix algebras M_d(Q) with d > 1 excluded", fact(facts.q_side))
        )
    else:
        for d in _divisors(g):
            if d == 1:
                continue
            if not quasi_simple:
                survivors.append(_Survivor("Q", d, g // d))
                continue
            blocked_by = next(
                (
                    q
                    for q in sorted(primes, reverse=True)
                    if not gl_has_element_of_order(d, q, with_witness=False)[0]
                ),
                None,
            )
            if blocked_by is not None:
                entries.append(
                    _entry(
                        f"End0 = M_{d}(Q) excluded: GL({d},Z) has no element of order {blocked_by}",
                        "verified",
                        "computed: totient criterion for finite orders in GL(n,Z); "
                        + fact("glq-conjugate-into-glz").citation,
                        f"a perfect group surjecting onto the Galois group has order divisible by {blocked_by}",
                    )
                )
            else:
                survivors.append(_Survivor("Q", d, g // d))

    # quaternion side: candidates M_d(H), d dividing g (d = 1 included)
    candidates: list[_Survivor] = []
    for d in _divisors(g):
        factor = g // d
        if char == 0 and factor % 2 == 1:
            continue  # odd-dimensional quaternionic factors force char > 0
        if char > 0 and order % char != 0:
            continue  # ramification is confined to primes dividing the order
        if d == 1 and quasi_simple:
            if g % 2 == 1 and char > 0:
                entries.extend(_hp_units_solvable_entries())
                entries.append(
                    _entry(
                        "End0 = H_p (d = 1) excluded: the perfect subgroup required "
                        "by the quasi-simple analysis cannot be solvable",
                        "verified",
                        "derived: unit solvability versus quasi-simplicity",
                        "",
                    )
                )
            else:
                entries.append(
                    _fact_entry(
                        "End0 = H (d = 1) excluded: no perfect finite subgroup of rational quaternion units",
                        fact("quaternion-units-no-perfect"),
                    )
                )
            continue
        candidates.append(_Survivor("H", d, factor))
    if char == 0 and g % 2 == 1:
        entries.append(
            _entry(
                "quaternionic branch excluded in characteristic 0",
                "verified",
                "parity of quaternionic factor dimensions (Albert restrictions; Oort's lemma)",
                f"genus {g} odd: every factor dimension is odd",
            )
        )
    if char > 0 and order % char != 0:
        entries.append(
            _entry(
                f"quaternionic branch excluded: characteristic {char} does not divide the group order",
                "verified",
                "ramification of the quaternion algebra is confined to primes dividing the group order (perfect image)",
                f"group order {order}",
            )
        )
    if candidates and facts.quaternion is not None:
        entries.append(
            _fact_entry("remaining quaternionic shapes excluded", fact(facts.quaternion))
        )
        candidates = []
    survivors.extend(candidates)
    return survivors


def _conclude_from_survivors(
    survivors: list[_Survivor],
    extra_product_dims: list[int],
    char: int,
    entries: list[ChecklistEntry],
    caveats: list[str],
) -> tuple[Outcome, Optional[frozenset[int]]]:
    """Map the surviving algebra shapes to the closed outcome set."""
    dims = sorted({s.factor_dim for s in survivors} | set(extra_product_dims))
    if not dims:
        entries.append(
            _entry(
                "all nontrivial endomorphism-algebra shapes excluded",
                "verified",
                "exhaustion of the theorem's alternatives",
                "End0 = Q, so the endomorphism ring is Z",
            )
        )
        return Outcome.END_IS_Z, None
    if all(d == 1 for d in dims):
        q_or_product = [s for s in survivors if s.algebra == "Q"] or extra_product_dims
        if q_or_product:
            caveats.append(
                "either the endomorphism ring is Z or the jacobian is isogenous "
                "over the algebraic closure to a product of elliptic curves"
            )
            return Outcome.PRODUCT_OF_ELLIPTIC_CURVES_POSSIBLE, None
        caveats.append(
            "either the endomorphism ring is Z or the jacobian is supersingular "
            f"(characteristic {char})"
        )
        return Outcome.SUPERSINGULAR_POSSIBLE, frozenset({char})
    caveats.append(
        "the center is Q but matrix-algebra shapes with factors of dimension "
        f"{dims} could not all be excluded"
    )
    return Outcome.END0_MATRIX_OVER_Q, None


# -- the main jacobian analysis --------------------------------------------------


def analyze_jacobian(case: CaseInput) -> Verdict:
    """Full hypothesis-by-hypothesis analysis of one jacobian case."""
    n = case.degree
    _validate_char(case.char)
    _validate_degree(n)
    if case.group.degree != n:
        raise ValueError("group degree does not match the stated root count")
    entries: list[ChecklistEntry] = [
        _fact_entry(
            "2-torsion of the jacobian is the heart of the root permutation module",
            fact("jacobian-2-torsion-heart"),
        )
    ]
    caveats: list[str] = []
    if case.conditional:
        assert case.hypothesis is not None
        entries.append(
            _entry(
                "Galois group identified from the cycle-type census",
                "heuristic",
                "computed: degree-partition census against exact class distributions",
                f"candidate {case.hypothesis.name} matched with confidence "
                f"{case.hypothesis.confidence:.6g}; verdict is conditional on it",
            )
        )
        caveats.append(
            "conditional: the Galois group was identified heuristically, not proved"
        )
        if case.char > 0:
            caveats.append(
                "the census identification reads the polynomial over the integers; "
                "for a positive-characteristic base field supply the group explicitly"
            )
    ctx = _Ctx(case.group)
    verdict = _analyze_group_case(ctx, case.char, entries, caveats)
    verdict.heart_commutant = ctx._centralizer
    verdict.conditional = case.conditional
    verdict.case = case.describe()
    return verdict


def _inconclusive(entries, caveats, reason: str) -> Verdict:
    caveats = list(caveats) + [f"inconclusive: {reason}"]
    return Verdict(Outcome.INCONCLUSIVE, entries, caveats)


def _transitivity_method(group: PermGroup) -> str:
    """How the transitivity degree was read: S_n and A_n build no chain."""
    if group.giant is not None:
        return "computed: Jordan's theorem and Atkinson's minimal-block test"
    return "computed: stabilizer-chain basic orbit sizes"


def _analyze_group_case(
    ctx: _Ctx,
    char: int,
    entries: list[ChecklistEntry],
    caveats: list[str],
) -> Verdict:
    group = ctx.group
    n = group.degree
    trans = group.transitivity_degree()
    ident = recognize(group)
    # the projective-line route needs only double transitivity even for even n
    need = 2 if ident.kind == "psl2-natural" else required_transitivity(n)
    trans_ok = trans >= need
    entries.append(
        _entry(
            f"Galois group acts {'doubly transitively' if need == 2 else '3-transitively'} on the {n} roots",
            "verified" if trans_ok else "failed",
            _transitivity_method(group),
            f"transitivity degree {trans}",
        )
    )
    if ident.kind != "generic":
        entries.append(
            _fact_entry(
                f"group identified as {ident.label} (degree {n}, order {group.order()}, "
                f"{trans}-transitive)",
                fact("multiply-transitive-classification"),
            )
        )
    if not trans_ok:
        return _inconclusive(entries, caveats, "the transitivity hypothesis failed")

    if ident.kind == "alternating" and n >= 5:
        return _rule_alternating(ctx, char, entries, caveats)
    if ident.kind in ("mathieu12", "mathieu11-deg12") and n == 12:
        return _rule_degree12_reduction(ctx, char, entries, caveats, ident)
    if ident.kind == "psl2-natural" and (n - 1) % 8 in (3, 5):
        return _rule_psl2_natural(ctx, entries, caveats)
    facts = _FAMILY_FACTS.get(ident.kind, _FamilyFacts())
    if facts.simple is not None:
        ctx.cited_simple = fact(facts.simple)
        entries.append(_fact_entry(_SIMPLE_HYPOTHESIS, ctx.cited_simple))
    entries.extend(_fact_entry(hypothesis, fact(key)) for hypothesis, key in facts.recorded)
    return _generic_rule(ctx, char, entries, caveats, facts)


class _FamilyFacts(NamedTuple):
    """The cited facts an identification supplies to the generic route, by key."""

    simple: Optional[str] = None  # the group's simplicity, as ctx.cited_simple
    recorded: tuple[tuple[str, str], ...] = ()  # (hypothesis, key), before the route
    quaternion: Optional[str] = None  # the quaternionic shapes the route leaves
    q_side: Optional[str] = None  # every M_d(Q) with d > 1


#: One row per family whose exclusions rest on theorems the engine cannot
#: compute at desk scale.  The quaternion facts of M11, PSL(2,11) on 11 and
#: PSL(2,7) on 7 are statements in characteristic p > 0; their genera (5, 5,
#: 3) are odd, so in characteristic 0 parity removes every quaternionic shape
#: before the route would read the fact.
_FAMILY_FACTS = {
    "mathieu11": _FamilyFacts(quaternion="mathieu-deg11-12-trivial-endo"),
    "psl2-11-deg11": _FamilyFacts(quaternion="deg11-supersingular-excluded"),
    "psl2-7-deg7": _FamilyFacts(quaternion="deg7-psl2-not-supersingular"),
    "mathieu22": _FamilyFacts(
        simple="atlas-m22-simple",
        recorded=(
            ("no abelian surface carries a definite quaternion algebra (d = 5 branch)",
             "no-definite-quaternion-surface"),
            ("no perfect central extension of M22 has a 20-dimensional irreducible "
             "representation", "m22-no-20dim-cover-rep"),
        ),
        quaternion="deg22-supersingular-excluded",
        q_side="m22-q-matrix-excluded",
    ),
    "mathieu23": _FamilyFacts(simple="atlas-m23-simple", quaternion="m23-quaternion-excluded"),
    "mathieu24": _FamilyFacts(simple="atlas-m24-simple", quaternion="m24-quaternion-excluded"),
}


def _generic_rule(ctx: _Ctx, char, entries, caveats, facts=_FamilyFacts()) -> Verdict:
    """The theorem route driven by computed structure and the family's cited facts."""
    analysis = _center_analysis(ctx)
    entries.extend(analysis.entries)
    if analysis.blocked is not None:
        return _inconclusive(entries, caveats, analysis.blocked)
    # dichotomy: with a scalar commutant and a live escape, either a product
    # decomposition or the center is Q; refine the second horn and combine.
    # A proved center Q leaves no product dimension live.
    dichotomy = (
        analysis.center_is_q == "unknown"
        and analysis.report.classification is CentralizerClass.SCALARS
        and bool(analysis.live_product_dims)
    )
    if analysis.center_is_q is True or dichotomy:
        survivors = _refine_center_q(ctx, char, entries, facts)
        outcome, chars = _conclude_from_survivors(
            survivors, analysis.live_product_dims, char, entries, caveats
        )
        if dichotomy and outcome is Outcome.END0_MATRIX_OVER_Q:
            # the center might not be Q at all on this horn; stay honest
            return _inconclusive(
                entries,
                caveats,
                "a product decomposition with factors of dimension > 1 could not be excluded",
            )
        return Verdict(outcome, entries, caveats, supersingular_chars=chars)
    if analysis.center_is_field is True:
        entries.append(
            _entry(
                "center of the endomorphism algebra is a field (simple Q-algebra)",
                "verified",
                "field commutant plus exclusion of every escape index",
                "",
            )
        )
        return Verdict(Outcome.END0_SIMPLE_Q_ALGEBRA, entries, caveats)
    return _inconclusive(entries, caveats, "no center conclusion is available")


# -- family rules -------------------------------------------------------------------


def _rule_alternating(ctx: _Ctx, char, entries, caveats) -> Verdict:
    n = ctx.group.degree
    if char == 3 and n in (5, 6):
        # the published alternating-group result needs n >= 7 in char 3;
        # run the exact dichotomy instead
        verdict = _generic_rule(ctx, char, entries, caveats)
        if verdict.outcome is Outcome.SUPERSINGULAR_POSSIBLE:
            verdict.checklist.append(
                _fact_entry(
                    "supersingular jacobians genuinely occur here in characteristic 3",
                    fact("a5-char3-supersingular-example"),
                )
            )
        return verdict
    report = ctx.centralizer()
    if report.classification is not CentralizerClass.SCALARS:
        raise InternalInconsistencyError("alternating heart centralizer not scalar")
    entries.append(
        _entry(
            "heart commutant is the scalar field F_2",
            "verified",
            _COMMUTANT_METHOD + "; " + fact("klemm-criterion").citation,
            "dimension 1",
        )
    )
    entries.append(
        _fact_entry(
            f"alternating Galois group of degree {n} forces endomorphism ring Z"
            + (" (characteristic 3 covered since n >= 7)" if char == 3 else ""),
            fact("an-jacobian-trivial-endo"),
        )
    )
    return Verdict(Outcome.END_IS_Z, entries, caveats)


def _rule_degree12_reduction(ctx: _Ctx, char, entries, caveats, ident) -> Verdict:
    """Degree 12: pass to the stabilizer of a root acting on the rest."""
    stab = ctx.group.point_stabilizer().restriction(range(1, 12))
    stab.name = f"root stabilizer in {ident.label}"
    entries.append(
        _entry(
            "reduction to degree 11: adjoin a root alpha to the base field and rewrite "
            "the curve via x1 = 1/(x - alpha), y1 = y/(x - alpha)^6; the jacobians are "
            "identified and the new Galois group is the root stabilizer on the other 11 roots",
            "verified",
            "standard birational rewriting of y^2 = f(x) at a rational root",
            f"stabilizer: order {stab.order()}, transitivity degree "
            f"{stab.transitivity_degree()} on 11 points",
        )
    )
    return _analyze_group_case(_Ctx(stab), char, entries, caveats)


def _rule_psl2_natural(ctx: _Ctx, entries, caveats) -> Verdict:
    """PSL(2,q) on the projective line with q = +-3 (mod 8): Suzuki's subgroup
    catalogue settles the escape indices, and Mortimer's F_4 classification
    cross-checks the computed heart commutant."""
    q = ctx.group.degree - 1
    criterion = psl2_subgroup_criterion(q)
    entries.append(
        _entry(
            f"PSL(2,{q}) has no proper subgroup of index dividing (q-1)/2 = {(q - 1) // 2}",
            "verified" if criterion else "failed",
            "computed: subgroup-order catalogue arithmetic; "
            + fact("suzuki-psl2-subgroups").citation,
            "every 2-power-adjusted escape index divides the genus",
        )
    )
    if not criterion:
        return _inconclusive(entries, caveats, "the subgroup-index criterion failed")
    report = ctx.centralizer()
    consistent = report.classification is CentralizerClass.FIELD and report.field_size == 4
    entries.append(
        _entry(
            "heart commutant is the field with 4 elements",
            "verified" if consistent else "failed",
            _COMMUTANT_METHOD + "; " + fact("mortimer-psl2-heart").citation,
            f"dimension {report.dim}",
        )
    )
    if not consistent:
        raise InternalInconsistencyError(
            f"PSL(2,{q}) heart commutant disagrees with the q = +-3 mod 8 classification"
        )
    entries.append(
        _entry(
            "center of the endomorphism algebra is a field (simple Q-algebra)",
            "verified",
            "field commutant plus the verified subgroup-index criterion",
            "the jacobian is absolutely simple or isogenous to a power of a simple variety",
        )
    )
    return Verdict(Outcome.END0_SIMPLE_Q_ALGEBRA, entries, caveats)


# -- pairwise analysis and the multiplication bound ----------------------------------


def hom_pair_analysis(
    f: IntPoly,
    h: IntPoly,
    char: int,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
) -> Verdict:
    """Do the two jacobians admit no nonzero homomorphisms?

    The transitivity hypotheses are checked on the identified Galois
    groups; linear disjointness of the splitting fields has no desk-scale
    exact test and is assessed heuristically through the independence of
    the joint degree-partition census, so that entry is always flagged
    heuristic.
    """
    _validate_char(char)
    _validate_degree(f.degree)
    _validate_degree(h.degree)
    if f.coeffs == h.coeffs:
        raise ValueError(
            "identical polynomials: the splitting fields coincide, so linear "
            "disjointness cannot hold"
        )
    if not is_squarefree(f) or not is_squarefree(h):
        raise ValueError("both polynomials must be squarefree")
    entries: list[ChecklistEntry] = [
        _fact_entry(
            "2-torsion of each jacobian is the heart of its root permutation module",
            fact("jacobian-2-torsion-heart"),
        )
    ]
    caveats: list[str] = []
    samples = []
    for label, poly in (("first", f), ("second", h)):
        case, sample, hyps = case_from_polynomial(poly, char, prime_budget)
        samples.append(sample)
        if case is None:
            entries.append(
                _entry(
                    f"Galois group of the {label} polynomial identified",
                    "unknown",
                    "computed: degree-partition census",
                    "no candidate matched",
                )
            )
            return _inconclusive(
                entries, caveats, f"no Galois-group match for the {label} polynomial"
            )
        assert case.hypothesis is not None
        entries.append(
            _entry(
                f"Galois group of the {label} polynomial identified",
                "heuristic",
                "computed: degree-partition census against exact class distributions",
                f"{case.hypothesis.name}, confidence {case.hypothesis.confidence:.6g}",
            )
        )
        trans = case.group.transitivity_degree()
        need = required_transitivity(poly.degree)
        ok = trans >= need
        entries.append(
            _entry(
                f"the {label} group acts {'doubly transitively' if need == 2 else '3-transitively'} "
                f"on its {poly.degree} roots",
                "verified" if ok else "failed",
                _transitivity_method(case.group),
                f"transitivity degree {trans} (conditional on the identification)",
            )
        )
        if not ok:
            return _inconclusive(
                entries, caveats, f"transitivity hypothesis failed for the {label} polynomial"
            )
    _, _, _, independence = joint_census(
        f, h, prime_budget, known_f=samples[0], known_h=samples[1]
    )
    heuristic_ok = independence >= MATCH_THRESHOLD
    entries.append(
        _entry(
            "splitting fields linearly disjoint over the base field",
            "heuristic",
            "computed: independence of the joint degree-partition census (no exact desk-scale test exists)",
            f"contingency-table tail probability {independence:.6g}",
        )
    )
    caveats.append(
        "linear disjointness was only assessed heuristically via the joint census"
    )
    if not heuristic_ok:
        return _inconclusive(
            entries,
            caveats,
            "the joint census contradicts independence of the splitting fields",
        )
    if char > 0:
        entries.append(
            _fact_entry(
                "positive characteristic escape clause: or both jacobians are supersingular",
                fact("hom-vanishing-escape"),
            )
        )
        caveats.append(
            f"in characteristic {char} the alternative 'both jacobians supersingular' remains open"
        )
    verdict = Verdict(
        Outcome.HOM_VANISHES,
        entries,
        caveats,
        conditional=True,
        case={
            "first_polynomial": str(f),
            "second_polynomial": str(h),
            "characteristic": char,
        },
    )
    return verdict
