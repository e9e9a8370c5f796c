"""Golden machine reports: the engine's verdicts, byte for byte.

`golden_reports.json` holds the machine report of each selftest fixture
and of a few CLI runs (`group-check` S9, A9, S12 and S24, `analyze` on
x^n - x - 1 and on Trinks' x^7 - 7*x + 3, `identify` on x^16 - x - 1,
x^20 - x - 1 and x^24 - x - 1 (the census benchmark's cases) and on
x^12 - x - 1 (every candidate rejected), two
`hom-check` runs (one of them the census benchmark's pair), and two
`group-check` runs with `--dump-action --dump-centralizer`, which pin the
matrix dump format and the echelon order of the commutant basis, and the
benchmark's `group-check` A12, A24 and PSL(2,25) on 26 from their generator
files and `analyze` on x^12 - x - 1).  A
refactor must leave every one of them unchanged.  A change that alters a verdict on purpose
(the S_n descent, certified Galois groups and proof-carrying
checklists: ROADMAP items 1, 2 and 4) regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and lists in CHANGES.md the reports that this command prints as
rewritten (it also prints the count left unchanged).
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from endocert import cli
from endocert.verdict import analyze_jacobian, case_from_group

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_reports.json"

CLI_CASES = [
    ("group-check", "--degree", "9", "--generators", "S9"),
    ("group-check", "--degree", "9", "--generators", "A9"),
    ("group-check", "--degree", "12", "--generators", "S12"),
    ("group-check", "--degree", "24", "--generators", "S24"),
    *(("analyze", "--poly", f"x^{n} - x - 1") for n in (5, 7, 8, 9)),
    ("analyze", "--poly", "x^7 - 7*x + 3"),
    ("hom-check", "--poly", "x^3 - 2", "--poly2", "x^3 + x - 1"),
    *(("identify", "--poly", f"x^{n} - x - 1") for n in (16, 20, 24)),
    ("identify", "--poly", "x^12 - x - 1"),
    ("hom-check", "--poly", "x^7 - x - 1", "--poly2", "x^8 - x - 1"),
    ("group-check", "--degree", "5", "--generators", "(1 2 3 4 5)",
     "--dump-action", "--dump-centralizer"),
    ("group-check", "--degree", "7", "--generators", "PSL2_7",
     "--dump-action", "--dump-centralizer"),
    # the groups and poly-analyze benchmark cases not pinned above
    *(("group-check", "--degree", str(n), "--generators", f"@perfbench/groups/{name}.txt")
      for name, n in (("A12", 12), ("A24", 24), ("PSL2_25", 26))),
    ("analyze", "--poly", "x^12 - x - 1"),
]
FIXTURES = [name for name, _, _, _ in cli._SELFTEST_CASES]


def _fixture_report(name: str) -> str:
    build, char = next((b, c) for n, b, c, _ in cli._SELFTEST_CASES if n == name)
    return analyze_jacobian(case_from_group(build(), char)).to_json()


def _cli_report(argv: tuple) -> str:
    # an @file generator argument names a file under the repository root
    argv = [f"@{ROOT / a[1:]}" if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([*argv, "--format", "machine"])
    assert code == cli.EXIT_OK
    return out.getvalue()


def current_reports() -> dict[str, str]:
    reports = {f"selftest: {name}": _fixture_report(name) for name in FIXTURES}
    reports.update({" ".join(argv): _cli_report(argv) for argv in CLI_CASES})
    return reports


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    expected = {f"selftest: {n}" for n in FIXTURES} | {" ".join(a) for a in CLI_CASES}
    assert set(golden) == expected


@pytest.mark.parametrize("name", FIXTURES)
def test_selftest_fixture_report(golden, name):
    assert _fixture_report(name) == golden[f"selftest: {name}"]


def test_selftest_reports_are_the_fixture_reports(golden, monkeypatch):
    # `selftest` builds each fixture group once and analyses it at every
    # characteristic its fixtures name; each report must be the fixture's own
    reports = []

    def recording(case):
        verdict = analyze_jacobian(case)
        reports.append(verdict.to_json())
        return verdict

    monkeypatch.setattr(cli, "analyze_jacobian", recording)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["selftest"]) == cli.EXIT_OK
    assert reports == [golden[f"selftest: {name}"] for name in FIXTURES]


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_cli_report(golden, argv):
    assert _cli_report(argv) == golden[" ".join(argv)]


def test_no_checklist_repeats_an_entry(golden):
    # a cited fact is recorded once, where it is first relied on
    for name, text in golden.items():
        report, _ = json.JSONDecoder().raw_decode(text)
        entries = [json.dumps(e, sort_keys=True) for e in report.get("checklist", [])]
        assert len(entries) == len(set(entries)), name


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text())
    new = current_reports()
    changed = sorted(key for key in new if old.get(key) != new[key])
    for key in changed:
        print(f"{'rewritten' if key in old else 'added'}: {key}")
    print(f"{len(new) - len(changed)} unchanged")
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
