"""Command-line front end.

Five commands and their flags, in the one ``_COMMANDS`` table that both
parses the command line and prints ``--help``.  A flag's value follows it
as ``--flag value`` or ``--flag=value``; abbreviated flags are refused.

Everything is configured by flags (no environment variables) so runs are
reproducible; machine reports are byte-stable for a fixed command line.
Each call builds its groups afresh, so repeated calls in one process give
the same reports after the same work.

Exit codes, returned by ``main`` and used as the process exit status: 0 any
verdict (including INCONCLUSIVE) and ``--help``; 2 input/usage errors;
3 internal inconsistency (a theorem cross-check tripped, i.e. a bug);
1 unexpected internal error.  A reader that closes the output pipe early
(``endocert ... | head -1``) ends the run quietly with 0.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

from .errors import InternalInconsistencyError, ParseError
from .fflin import format_matrix
from .permgroup import PermGroup, parse_generators
from .permgroup import families as fam
from .polygal import DEFAULT_PRIME_BUDGET, IntPoly, census, identify, standard_candidates
from .repmod import build_heart, heart_centralizer
from .verdict import (Outcome, Verdict, analyze_jacobian, case_from_group, case_from_polynomial,
                      hom_pair_analysis, unidentified_verdict)
from .verdict.engine import _validate_degree

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _parse_poly(args) -> IntPoly:
    if args.poly:
        return IntPoly.parse(args.poly)
    if args.coeffs:
        return IntPoly.from_coefficient_text(args.coeffs)
    raise ParseError("one of --poly or --coeffs is required")


_FAMILY_NAMES = {
    **{f"M{n}": (lambda n=n: fam.mathieu_group(n)) for n in (11, 12, 22, 23, 24)},
    "PSL2_11": fam.psl2_11_on_11_points,
    "PSL2_7": fam.psl2_7_on_7_points,
    "A7_15": fam.a7_on_15_points,
}


def _parse_group(args) -> PermGroup:
    degree, raw = args.degree, args.generators
    key = raw.strip()
    if key.upper() in _FAMILY_NAMES:
        group = _FAMILY_NAMES[key.upper()]()
        if group.degree != degree:
            raise ParseError(f"family {key} has degree {group.degree}, not {degree}")
        return group
    if key[:1].upper() in ("A", "S") and key[1:].isdigit():
        giant = fam.alternating_group if key[0] in "Aa" else fam.symmetric_group
        group = giant(int(key[1:]))
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
    if args.dump_action:
        heart = build_heart(group.degree)
        for g in group.generators:
            print(f"# action of {g.cycle_string()}")
            print(format_matrix(heart.act(g)))
    if args.dump_centralizer:
        report = verdict.heart_commutant or heart_centralizer(group)
        print(f"# heart commutant: {report.classification.value}, dimension {report.dim}")
        for m in report.algebra.basis_matrices():
            print(format_matrix(m))


def _emit(verdict, fmt: str) -> None:
    print(verdict.to_json() if fmt == "machine" else verdict.render_text())


def _cmd_analyze(args) -> int:
    f = _parse_poly(args)
    _validate_degree(f.degree)  # before the census samples any prime
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
    f, h = IntPoly.parse(args.poly), IntPoly.parse(args.poly2)
    _emit(hom_pair_analysis(f, h, args.char, args.prime_budget), args.format)
    return EXIT_OK


def _cmd_identify(args) -> int:
    f = _parse_poly(args)
    sample = census(f, args.prime_budget)
    hyps = identify(sample, standard_candidates(f.degree))
    if args.format == "machine":
        print(json.dumps({
            "schema_version": 1,
            "census": sample.to_stable_dict(),
            "hypotheses": [
                {"name": h.name, "matched": h.matched, "confidence": h.confidence,
                 "support_contained": h.support_contained}
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
    rows = []
    groups: dict = {}  # constructor -> its group, for this call only
    for name, build, char, expected in _SELFTEST_CASES:
        if build not in groups:
            groups[build] = build()
        verdict = analyze_jacobian(case_from_group(groups[build], char))
        rows.append((name, verdict.outcome.value, verdict.outcome in expected))
    failures = sum(not ok for _, _, ok in rows)
    if args.format == "machine":
        print(json.dumps({
            "schema_version": 1,
            "results": [{"case": n, "outcome": o, "pass": ok} for n, o, ok in rows],
        }, sort_keys=True, indent=2))
    else:
        width = max(len(n) for n, _, _ in rows)
        for n, o, ok in rows:
            print(f"{'PASS' if ok else 'FAIL'}  {n:<{width}}  {o}")
        print(f"{len(rows) - failures}/{len(rows)} fixture cases passed")
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


# The grammar, which both parses the command line and prints --help: each
# command's handler, summary and flags.  A flag is (name, type, default,
# help); the type is int, str, a tuple of choices or bool for a switch, and
# the default ``...`` marks a required flag.
_COMMON = (
    ("--char", int, 0, "characteristic of the base field (0 or an odd prime; never 2)"),
    ("--format", ("text", "machine"), "text", "report rendering"),
    ("--prime-budget", int, DEFAULT_PRIME_BUDGET, "good odd primes sampled by the census"),
)
_INPUT = (
    ("--poly", str, None, 'polynomial, e.g. "x^7 - 7*x + 3"'),
    ("--coeffs", str, None, 'ascending coefficient list, e.g. "3 -7 0 0 0 0 0 1"'),
)
_DUMPS = (
    ("--dump-centralizer", bool, False, "also print the heart-commutant basis matrices"),
    ("--dump-action", bool, False, "also print the generator action matrices on the heart"),
)
_COMMANDS = {
    "analyze": (_cmd_analyze, "analyze a polynomial's jacobian", _COMMON + _INPUT + _DUMPS),
    "group-check": (_cmd_group_check, "analyze with an explicitly given Galois group", _COMMON + (
        ("--degree", int, ..., "number of roots n"),
        ("--generators", str, ..., "newline-separated cycle notation, or @file, "
                                   "or a family name like M12 / A5 / PSL2_11"),
    ) + _DUMPS),
    "hom-check": (_cmd_hom_check, "check vanishing of homomorphisms between two jacobians",
                  _COMMON + (("--poly", str, ..., "first polynomial"),
                             ("--poly2", str, ..., "second polynomial"))),
    "identify": (_cmd_identify, "census a polynomial and rank candidate Galois groups",
                 _COMMON + _INPUT),
    "selftest": (_cmd_selftest, "run the built-in worked-case fixture suite", _COMMON[1:2]),
}
_HELP = ("-h", "--help")


def _help(command: Optional[str]) -> int:
    """Print the help of one command, or of the program when ``command`` is None."""
    if command is None:
        lines = ["usage: endocert <command> [flags]; `endocert <command> --help` lists its flags",
                 "certify what the implemented endomorphism-algebra theorems say about the "
                 "jacobian of y^2 = f(x), from Galois-group data", "commands:"]
        lines += [f"  {name:<12} {summary}" for name, (_, summary, _) in _COMMANDS.items()]
    else:
        lines = [f"usage: endocert {command} [flags]", _COMMANDS[command][1], "flags:"]
        for name, kind, default, text in _COMMANDS[command][2]:
            value = "" if kind is bool else "|".join(kind) if isinstance(kind, tuple) else kind.__name__
            note = (" (required)" if default is ... else "" if default is None or kind is bool
                    else f" (default {default})")
            lines.append(f"  {name + ' ' + value:<22} {text}{note}")
    print("\n".join(lines + ["a flag's value follows it as `--flag value` or `--flag=value`; "
                             "abbreviated flags are refused"]))
    return EXIT_OK


def _parse(argv: Sequence[str]):
    """The handler and argument the command line asks for: a command with a
    namespace of its flags, or ``_help``.  Usage errors raise ``ParseError``."""
    if argv and argv[0] in _HELP:
        return _help, None
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ParseError(f"{given}; choose one of {', '.join(_COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    handler, _, spec = _COMMANDS[command]
    flags = {name: kind for name, kind, _, _ in spec}
    values = {name: default for name, _, default, _ in spec}
    for token in tokens:
        if token in _HELP:
            return _help, command
        name, eq, value = token.partition("=")
        kind = flags.get(name)
        if kind is None or (kind is bool and eq):
            raise ParseError(f"unrecognized argument {token!r} for {command}")
        if kind is bool:
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ParseError(f"{name} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ParseError(f"{name} needs an integer, not {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise ParseError(f"{name} must be one of {', '.join(kind)}, not {value!r}")
        values[name] = value
    missing = [name for name, value in values.items() if value is ...]
    if missing:
        raise ParseError(f"{command} needs {' and '.join(missing)}")
    return handler, SimpleNamespace(**{n[2:].replace("-", "_"): v for n, v in values.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(args)
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
