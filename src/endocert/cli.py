"""Command-line front end.

Commands:
  analyze      polynomial (or explicit group) -> jacobian verdict
  group-check  explicit generators + degree -> jacobian verdict
  hom-check    two polynomials -> vanishing-homomorphisms verdict
  identify     polynomial -> census and candidate match table
  selftest     run the built-in worked-case fixture suite

Everything is configured by flags (no environment variables) so runs are
reproducible; machine reports are byte-stable for a fixed command line.
Each call builds its groups afresh, so repeated calls in one process give
the same reports after the same work.

Exit codes: 0 any verdict (including INCONCLUSIVE); 2 input/usage errors;
3 internal inconsistency (a theorem cross-check tripped, i.e. a bug);
1 unexpected internal error.  A reader that closes the output pipe early
(``endocert ... | head -1``) ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import InternalInconsistencyError, ParseError
from .fflin import format_matrix
from .permgroup import Perm, PermGroup, parse_generators
from .permgroup import families as fam
from .polygal import DEFAULT_PRIME_BUDGET, IntPoly, census, identify, standard_candidates
from .repmod import build_heart, heart_centralizer
from .verdict import (
    Outcome,
    Verdict,
    analyze_jacobian,
    case_from_group,
    case_from_polynomial,
    hom_pair_analysis,
    unidentified_verdict,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endocert",
        description=(
            "certify what the implemented endomorphism-algebra theorems say "
            "about the jacobian of y^2 = f(x), from Galois-group data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--char", type=int, default=0,
                       help="characteristic of the base field (0 or an odd prime; never 2)")
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="report rendering")
        p.add_argument("--prime-budget", type=int, default=DEFAULT_PRIME_BUDGET,
                       help="good odd primes sampled by the census")

    p_an = sub.add_parser("analyze", help="analyze a polynomial's jacobian")
    add_common(p_an)
    p_an.add_argument("--poly", help='polynomial, e.g. "x^7 - 7*x + 3"')
    p_an.add_argument("--coeffs", help='ascending coefficient list, e.g. "3 -7 0 0 0 0 0 1"')
    p_an.add_argument("--dump-centralizer", action="store_true",
                      help="also print the heart-commutant basis matrices")
    p_an.add_argument("--dump-action", action="store_true",
                      help="also print the generator action matrices on the heart")

    p_gc = sub.add_parser("group-check", help="analyze with an explicitly given Galois group")
    add_common(p_gc)
    p_gc.add_argument("--degree", type=int, required=True, help="number of roots n")
    p_gc.add_argument("--generators", required=True,
                      help="newline-separated cycle notation, or @file, or a family name like M12 / A5 / PSL2_11")
    p_gc.add_argument("--dump-centralizer", action="store_true")
    p_gc.add_argument("--dump-action", action="store_true")

    p_hc = sub.add_parser("hom-check", help="check vanishing of homomorphisms between two jacobians")
    add_common(p_hc)
    p_hc.add_argument("--poly", required=True, help="first polynomial")
    p_hc.add_argument("--poly2", required=True, help="second polynomial")

    p_id = sub.add_parser("identify", help="census a polynomial and rank candidate Galois groups")
    add_common(p_id)
    p_id.add_argument("--poly", help="polynomial expression")
    p_id.add_argument("--coeffs", help="ascending coefficient list")

    p_st = sub.add_parser("selftest", help="run the built-in worked-case fixture suite")
    p_st.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def _parse_poly(args) -> IntPoly:
    if getattr(args, "poly", None):
        return IntPoly.parse(args.poly)
    if getattr(args, "coeffs", None):
        return IntPoly.from_coefficient_text(args.coeffs)
    raise ParseError("one of --poly or --coeffs is required")


_FAMILY_NAMES = {
    "M11": lambda: fam.mathieu_group(11),
    "M12": lambda: fam.mathieu_group(12),
    "M22": lambda: fam.mathieu_group(22),
    "M23": lambda: fam.mathieu_group(23),
    "M24": lambda: fam.mathieu_group(24),
    "PSL2_11": fam.psl2_11_on_11_points,
    "PSL2_7": fam.psl2_7_on_7_points,
    "A7_15": fam.a7_on_15_points,
}


def _parse_group(args) -> PermGroup:
    raw = args.generators
    degree = args.degree
    key = raw.strip()
    if key.upper() in _FAMILY_NAMES:
        group = _FAMILY_NAMES[key.upper()]()
        if group.degree != degree:
            raise ParseError(
                f"family {key} has degree {group.degree}, not {degree}"
            )
        return group
    if key.upper().startswith("A") and key[1:].isdigit():
        group = fam.alternating_group(int(key[1:]))
    elif key.upper().startswith("S") and key[1:].isdigit():
        group = fam.symmetric_group(int(key[1:]))
    elif key.startswith("@"):
        try:
            text = Path(key[1:]).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read generators from {key[1:]}: {exc}") from exc
        group = PermGroup(degree, parse_generators(text, degree))
    else:
        group = PermGroup(degree, parse_generators(raw, degree))
    if group.degree != degree:
        raise ParseError(f"generator degree {group.degree} does not match --degree {degree}")
    return group


def _print_dumps(args, group: PermGroup, verdict: Verdict) -> None:
    if getattr(args, "dump_action", False):
        heart = build_heart(group.degree)
        for g in group.generators:
            print(f"# action of {g.cycle_string()}")
            print(format_matrix(heart.act(g)))
    if getattr(args, "dump_centralizer", False):
        report = verdict.heart_commutant
        if report is None:
            report = heart_centralizer(group)
        print(f"# heart commutant: {report.classification.value}, dimension {report.dim}")
        for m in report.algebra.basis_matrices():
            print(format_matrix(m))


def _emit(verdict, fmt: str) -> None:
    if fmt == "machine":
        print(verdict.to_json())
    else:
        print(verdict.render_text())


def _cmd_analyze(args) -> int:
    f = _parse_poly(args)
    case, sample, hyps = case_from_polynomial(f, args.char, args.prime_budget)
    if case is None:
        _emit(unidentified_verdict(f, args.char), args.format)
        return EXIT_OK
    verdict = analyze_jacobian(case)
    _emit(verdict, args.format)
    _print_dumps(args, case.group, verdict)
    return EXIT_OK


def _cmd_group_check(args) -> int:
    group = _parse_group(args)
    verdict = analyze_jacobian(case_from_group(group, args.char))
    _emit(verdict, args.format)
    _print_dumps(args, group, verdict)
    return EXIT_OK


def _cmd_hom_check(args) -> int:
    f = IntPoly.parse(args.poly)
    h = IntPoly.parse(args.poly2)
    verdict = hom_pair_analysis(f, h, args.char, args.prime_budget)
    _emit(verdict, args.format)
    return EXIT_OK


def _cmd_identify(args) -> int:
    f = _parse_poly(args)
    sample = census(f, args.prime_budget)
    hyps = identify(sample, standard_candidates(f.degree))
    if args.format == "machine":
        import json

        print(json.dumps({
            "schema_version": 1,
            "census": sample.to_stable_dict(),
            "hypotheses": [
                {
                    "name": h.name,
                    "matched": h.matched,
                    "confidence": h.confidence,
                    "support_contained": h.support_contained,
                }
                for h in hyps
            ],
        }, sort_keys=True, indent=2))
    else:
        print(f"census of {f} over {sample.sampled} good primes")
        for part, count in sorted(sample.counts.items()):
            print(f"  pattern {part}: {count}")
        for p, reason in sample.excluded:
            print(f"  excluded prime {p}: {reason}")
        for h in hyps:
            flag = "matched" if h.matched else "rejected"
            print(f"  {h.name:24s} {flag:8s} confidence {h.confidence:.6g}")
    return EXIT_OK


def _a5() -> PermGroup:
    return fam.alternating_group(5)


# fixtures that share a group share its constructor, so `selftest` builds it once
_SELFTEST_CASES = [
    ("A5, n=5, char 0", _a5, 0, {Outcome.END_IS_Z}),
    ("A5, n=5, char 5", _a5, 5, {Outcome.END_IS_Z}),
    ("A5, n=5, char 3", _a5, 3, {Outcome.SUPERSINGULAR_POSSIBLE}),
    ("PSL(2,7), n=7, char 0", fam.psl2_7_on_7_points, 0, {Outcome.END_IS_Z}),
    ("PSL(2,7), n=7, char 7", fam.psl2_7_on_7_points, 7, {Outcome.END_IS_Z}),
    ("PSL(2,11), n=11, char 0", fam.psl2_11_on_11_points, 0, {Outcome.END_IS_Z}),
    ("M12, n=12, char 0", lambda: fam.mathieu_group(12), 0, {Outcome.END_IS_Z}),
    ("M22, n=22, char 0", lambda: fam.mathieu_group(22), 0, {Outcome.END_IS_Z}),
    ("M23, n=23, char 0", lambda: fam.mathieu_group(23), 0, {Outcome.END_IS_Z}),
    ("M24, n=24, char 0", lambda: fam.mathieu_group(24), 0, {Outcome.END_IS_Z}),
    ("A7, n=15, char 0", fam.a7_on_15_points, 0,
     {Outcome.END_IS_Z, Outcome.PRODUCT_OF_ELLIPTIC_CURVES_POSSIBLE}),
    ("PSL(2,13), n=14, char 0", lambda: fam.psl2(13), 0, {Outcome.END0_SIMPLE_Q_ALGEBRA}),
]


def _cmd_selftest(args) -> int:
    failures = 0
    rows = []
    groups: dict = {}  # constructor -> its group, for this call only
    for name, build, char, expected in _SELFTEST_CASES:
        if build not in groups:
            groups[build] = build()
        verdict = analyze_jacobian(case_from_group(groups[build], char))
        ok = verdict.outcome in expected
        failures += 0 if ok else 1
        rows.append((name, verdict.outcome.value, ok))
    if args.format == "machine":
        import json

        print(json.dumps({
            "schema_version": 1,
            "results": [
                {"case": n, "outcome": o, "pass": ok} for n, o, ok in rows
            ],
        }, sort_keys=True, indent=2))
    else:
        width = max(len(n) for n, _, _ in rows)
        for n, o, ok in rows:
            print(f"{'PASS' if ok else 'FAIL'}  {n:<{width}}  {o}")
        print(f"{len(rows) - failures}/{len(rows)} fixture cases passed")
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "group-check": _cmd_group_check,
        "hom-check": _cmd_hom_check,
        "identify": _cmd_identify,
        "selftest": _cmd_selftest,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send the unflushed rest to devnull so the
        # flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
