"""The benchmark's workloads: fixed lists of cases, each one `endocert` CLI call.

A case names the CLI arguments (without `--format`, which is always
`machine`), the group or polynomial it is about, and what the checks in
`checks.py` need to know about it.  The default prime budget (200) is used
throughout, so no case passes `--prime-budget`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

PRIME_BUDGET = 200


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple[str, ...]
    # group-check: generator file under perfbench/groups, read before timing
    generators: Optional[str] = None
    # the group as the never-overclaim table and the order check name it:
    # "S9", "A5", "M12", "PSL2_13", "PSL2_7 on 7", "PSL2_11 on 11", "A7 on 15"
    group: Optional[str] = None
    char: int = 0
    # identify / hom-check: the trinomials x^n + a x + b involved, as (n, a, b)
    trinomials: tuple[tuple[int, int, int], ...] = ()


def _group_check(group: str, gens_file: str, degree: int, char: int) -> Case:
    return Case(
        id=f"group-check {group} char {char}",
        argv=("group-check", "--degree", str(degree), "--char", str(char)),
        generators=gens_file,
        group=group,
        char=char,
    )


def _trinomial_text(n: int) -> str:
    return f"x^{n} - x - 1"


GROUPS = [
    # the 12 `endocert selftest` fixtures, at their characteristics
    _group_check("A5", "A5.txt", 5, 0),
    _group_check("A5", "A5.txt", 5, 5),
    _group_check("A5", "A5.txt", 5, 3),
    _group_check("PSL2_7 on 7", "PSL2_7_on_7.txt", 7, 0),
    _group_check("PSL2_7 on 7", "PSL2_7_on_7.txt", 7, 7),
    _group_check("PSL2_11 on 11", "PSL2_11_on_11.txt", 11, 0),
    _group_check("M12", "M12.txt", 12, 0),
    _group_check("M22", "M22.txt", 22, 0),
    _group_check("M23", "M23.txt", 23, 0),
    _group_check("M24", "M24.txt", 24, 0),
    _group_check("A7 on 15", "A7_on_15.txt", 15, 0),
    _group_check("PSL2_13", "PSL2_13.txt", 14, 0),
    # the symmetric and alternating groups, and a PSL(2,q) with q = 1 (mod 8)
    *(_group_check(f"{kind}{n}", f"{kind}{n}.txt", n, 0) for n in (9, 12, 24) for kind in "SA"),
    _group_check("PSL2_25", "PSL2_25.txt", 26, 0),
]

CENSUS = [
    *(
        Case(
            id=f"identify {_trinomial_text(n)}",
            argv=("identify", "--poly", _trinomial_text(n)),
            trinomials=((n, -1, -1),),
        )
        for n in (16, 20, 24)
    ),
    Case(
        id=f"hom-check {_trinomial_text(7)} / {_trinomial_text(8)}",
        argv=("hom-check", "--poly", _trinomial_text(7), "--poly2", _trinomial_text(8)),
        group="S7 x S8",
        trinomials=((7, -1, -1), (8, -1, -1)),
    ),
]

POLY_ANALYZE = [
    *(
        Case(
            id=f"analyze {_trinomial_text(n)}",
            argv=("analyze", "--poly", _trinomial_text(n)),
            group=f"S{n}",  # Osada 1987
        )
        for n in (5, 7, 8, 9, 12)
    ),
    Case(
        id="analyze x^7 - 7*x + 3",
        argv=("analyze", "--poly", "x^7 - 7*x + 3"),
        group="PSL2_7 on 7",  # Trinks' polynomial
    ),
]

WORKLOADS = {"groups": GROUPS, "census": CENSUS, "poly-analyze": POLY_ANALYZE}

# Operations that fail on every run because of a known fault in the program.
# They stay in their workload and are counted as failed until it is mended.
KNOWN_FAULTS = {
    "analyze x^12 - x - 1": (
        "no census candidate matches, and cli._cmd_analyze then builds its own "
        "verdict with conditional false for a polynomial input"
    ),
}
