"""Checks on each machine report, made without the program's own code.

Group orders come from textbook formulas, census figures are recomputed
from the polynomial by hand-rolled arithmetic, and the outcome is held
against a never-overclaim table taken from the literature (sources in
README.md).  Each check function returns a list of failure messages; an
empty list means the operation passed.
"""

from __future__ import annotations

import json
import math
import re

from workloads import PRIME_BUDGET, Case

ATLAS_MATHIEU_ORDERS = {11: 7920, 12: 95040, 22: 443520, 23: 10200960, 24: 244823040}

# What each outcome implies: an outcome is accepted when it is the strongest
# proved one, anything that one implies, or INCONCLUSIVE.
IMPLIES = {
    "END_IS_Z": {
        "END0_SIMPLE_Q_ALGEBRA",
        "END0_MATRIX_OVER_Q",
        "SUPERSINGULAR_POSSIBLE",
        "PRODUCT_OF_ELLIPTIC_CURVES_POSSIBLE",
    },
}

# (group, characteristic) -> (strongest outcome the literature proves, source)
# The source keys are explained in README.md.
NEVER_OVERCLAIM = {
    **{(f"{kind}{n}", 0): ("END_IS_Z", "zarhin-2000") for kind in "SA" for n in (5, 7, 8, 9, 12, 24)},
    ("A5", 5): ("END_IS_Z", "zarhin-2004"),
    ("A5", 3): ("SUPERSINGULAR_POSSIBLE", "zarhin-2004"),
    ("PSL2_7 on 7", 0): ("END_IS_Z", "source-paper"),
    ("PSL2_7 on 7", 7): ("END_IS_Z", "source-paper"),
    ("PSL2_11 on 11", 0): ("END_IS_Z", "source-paper"),
    ("M12", 0): ("END_IS_Z", "zarhin-2001"),
    ("M22", 0): ("END_IS_Z", "zarhin-2001"),
    ("M23", 0): ("END_IS_Z", "zarhin-2001"),
    ("M24", 0): ("END_IS_Z", "zarhin-2001"),
    ("A7 on 15", 0): ("PRODUCT_OF_ELLIPTIC_CURVES_POSSIBLE", "source-paper"),
    ("PSL2_13", 0): ("END0_SIMPLE_Q_ALGEBRA", "source-paper"),
    ("PSL2_25", 0): ("INCONCLUSIVE", "none"),
    ("S7 x S8", 0): ("HOM_VANISHES", "zarhin-2003"),
}


def textbook_order(group: str) -> int:
    """Order of a group named as in workloads.Case.group."""
    name = group.split(" on ")[0]
    kind, rest = re.fullmatch(r"(S|A|M|PSL2_)(\d+)", name).groups()
    k = int(rest)
    if kind == "S":
        return math.factorial(k)
    if kind == "A":
        return math.factorial(k) // 2
    if kind == "M":
        return ATLAS_MATHIEU_ORDERS[k]
    return k * (k * k - 1) // 2  # PSL(2, q), q odd


def _outcome_failures(case: Case, report: dict) -> list[str]:
    outcome = report["outcome"]
    strongest, _source = NEVER_OVERCLAIM[(case.group, case.char)]
    allowed = {strongest, "INCONCLUSIVE"} | IMPLIES.get(strongest, set())
    out = []
    if outcome not in allowed:
        out.append(f"overclaim: {outcome}, the literature proves at most {strongest}")
    if outcome == "INCONCLUSIVE" and not any(c.startswith("inconclusive:") for c in report["caveats"]):
        out.append("INCONCLUSIVE without an 'inconclusive:' caveat")
    return out


def check_group_check(case: Case, report: dict) -> list[str]:
    out = _outcome_failures(case, report)
    if report["conditional"] is not False:
        out.append("a supplied group gave a conditional verdict")
    order = report["case"].get("group_order")
    if order != str(textbook_order(case.group)):
        out.append(f"group order {order}, textbook {textbook_order(case.group)}")
    return out


def check_analyze(case: Case, report: dict) -> list[str]:
    out = _outcome_failures(case, report)
    if report["conditional"] is not True:
        out.append("a polynomial input gave an unconditional verdict")
    order = report["case"].get("group_order")
    if order != str(textbook_order(case.group)):
        out.append(f"matched group order {order}, expected {textbook_order(case.group)}")
    return out


def check_hom_check(case: Case, report: dict) -> list[str]:
    out = _outcome_failures(case, report)
    if report["conditional"] is not True:
        out.append("a polynomial pair gave an unconditional verdict")
    for label, (n, _a, _b) in zip(("first", "second"), case.trinomials):
        entry = next(
            (e for e in report["checklist"]
             if e["hypothesis"] == f"Galois group of the {label} polynomial identified"),
            None,
        )
        name = entry["evidence"].split(",")[0] if entry else None
        if name != f"S{n}":  # Osada 1987: Gal(x^n - x - 1) = S_n
            out.append(f"{label} polynomial identified as {name}, not S{n}")
    return out


def odd_primes(count: int) -> list[int]:
    """The first `count` odd primes, by a sieve of Eratosthenes."""
    limit = 64
    while True:
        sieve = bytearray([1]) * limit
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytearray(len(range(p * p, limit, p)))
        primes = [p for p in range(3, limit) if sieve[p]]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def trinomial_discriminant(n: int, a: int, b: int) -> int:
    """disc(x^n + a x + b) = (-1)^(n(n-1)/2) (n^n b^(n-1) + (-1)^(n-1) (n-1)^(n-1) a^n)."""
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * (n**n * b ** (n - 1) + (-1) ** (n - 1) * (n - 1) ** (n - 1) * a**n)


def check_identify(case: Case, report: dict) -> list[str]:
    (n, a, b), = case.trinomials
    census = report["census"]
    counts = {tuple(map(int, k.split(","))): v for k, v in census["counts"].items()}
    out = []
    if census["degree"] != n:
        out.append(f"census degree {census['degree']}, expected {n}")
    if census["sampled"] != PRIME_BUDGET or sum(counts.values()) != PRIME_BUDGET:
        out.append(f"sampled {census['sampled']}, counts sum {sum(counts.values())}, budget {PRIME_BUDGET}")
    disc = trinomial_discriminant(n, a, b)
    considered = odd_primes(census["sampled"] + len(census["excluded"]))
    excluded = [p for p, _reason in census["excluded"]]
    if excluded != [p for p in considered if disc % p == 0]:
        out.append(f"excluded primes {excluded} are not the primes dividing the discriminant")
    good = [p for p in considered if disc % p]
    roots = sum(1 for p in good for x in range(p) if (pow(x, n, p) + a * x + b) % p == 0)
    linear = sum(c * t.count(1) for t, c in counts.items())
    if roots != linear:
        out.append(f"{linear} linear factors in the census, {roots} roots found by evaluation")
    squares = sum(1 for p in good if pow(disc % p, (p - 1) // 2, p) == 1)
    parity = sum(c for t, c in counts.items() if len(t) % 2 == n % 2)
    if squares != parity:  # Stickelberger
        out.append(f"{parity} patterns with a part count = n (mod 2), {squares} square discriminants")
    return out


CHECKS = {
    "group-check": check_group_check,
    "analyze": check_analyze,
    "hom-check": check_hom_check,
    "identify": check_identify,
}


def check(case: Case, exit_code: int, text: str) -> list[str]:
    """Failure messages for one operation's exit code and machine report."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    return CHECKS[case.argv[0]](case, report)
