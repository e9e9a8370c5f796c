"""Golden machine reports: the engine's verdicts, byte for byte.

`golden_reports.json` holds the machine report of each selftest fixture
and of a few CLI runs (`group-check` S9, A9, S12 and S24, `analyze` on
x^n - x - 1 and on Trinks' x^7 - 7*x + 3, one `hom-check`, and two
`group-check` runs with `--dump-action --dump-centralizer`, which pin the
matrix dump format and the echelon order of the commutant basis).  A
refactor must leave every one of them unchanged.  A change that alters a verdict on purpose
(the S_n descent, certified Galois groups and proof-carrying
checklists: ROADMAP items 1, 2 and 4) regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and lists the changed reports in CHANGES.md.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from endocert import cli
from endocert.verdict import analyze_jacobian, case_from_group

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

CLI_CASES = [
    ("group-check", "--degree", "9", "--generators", "S9"),
    ("group-check", "--degree", "9", "--generators", "A9"),
    ("group-check", "--degree", "12", "--generators", "S12"),
    ("group-check", "--degree", "24", "--generators", "S24"),
    *(("analyze", "--poly", f"x^{n} - x - 1") for n in (5, 7, 8, 9)),
    ("analyze", "--poly", "x^7 - 7*x + 3"),
    ("hom-check", "--poly", "x^3 - 2", "--poly2", "x^3 + x - 1"),
    ("group-check", "--degree", "5", "--generators", "(1 2 3 4 5)",
     "--dump-action", "--dump-centralizer"),
    ("group-check", "--degree", "7", "--generators", "PSL2_7",
     "--dump-action", "--dump-centralizer"),
]
FIXTURES = [name for name, _, _, _ in cli._SELFTEST_CASES]


def _fixture_report(name: str) -> str:
    build, char = next((b, c) for n, b, c, _ in cli._SELFTEST_CASES if n == name)
    return analyze_jacobian(case_from_group(build(), char)).to_json()


def _cli_report(argv: tuple) -> str:
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_reports(), indent=2, sort_keys=True) + "\n")
