import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from endocert import cli
from endocert.cli import EXIT_OK, EXIT_USAGE, main
from endocert.permgroup import StabilizerChain, structure
from endocert.permgroup import families as fam
from endocert.repmod import heart_centralizer
from endocert.verdict import analyze_jacobian, case_from_group, engine

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_trinks_polynomial(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--poly", "x^7 - 7*x + 3", "--char", "0"
        )
        assert code == EXIT_OK
        assert "END_IS_Z" in out
        assert "conditional" in out

    def test_machine_format_and_stability(self, capsys):
        args = ("analyze", "--poly", "x^5 - 2", "--char", "0", "--format", "machine")
        code, out1, _ = run(capsys, *args)
        assert code == EXIT_OK
        data = json.loads(out1)
        assert data["schema_version"] == 1
        code, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_coefficient_input(self, capsys):
        code, out, _ = run(capsys, "analyze", "--coeffs", "3 -7 0 0 0 0 0 1")
        assert code == EXIT_OK and "END_IS_Z" in out

    def test_unmatched_polynomial_is_inconclusive_but_exit_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "--poly", "x^8 + 1")
        assert code == EXIT_OK
        assert "INCONCLUSIVE" in out

    def test_no_candidate_matched_is_conditional(self, capsys):
        # the census candidates at degree 10 exclude S10 and A10
        args = ("analyze", "--poly", "x^10 - x - 1")
        code, out, _ = run(capsys, *args, "--format", "machine")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["outcome"] == "INCONCLUSIVE"
        assert data["conditional"] is True
        assert data["checklist"][0]["status"] == "unknown"
        code, out, _ = run(capsys, *args)
        assert "status: conditional on the heuristic Galois-group identification" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "--poly", "x^^2")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_char_2_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--poly", "x^5 - 2", "--char", "2")
        assert code == EXIT_USAGE

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == EXIT_USAGE


class TestGroupCheck:
    def test_m12_by_family_name(self, capsys):
        code, out, _ = run(
            capsys, "group-check", "--degree", "12", "--generators", "M12"
        )
        assert code == EXIT_OK
        assert "END_IS_Z" in out
        assert "group supplied" in out

    def test_explicit_generators(self, capsys):
        gens = "(1 2 3 4 5)\n(3 4 5)"
        code, out, _ = run(
            capsys, "group-check", "--degree", "5", "--generators", gens
        )
        assert code == EXIT_OK and "END_IS_Z" in out

    def test_generators_from_file(self, capsys, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("(1 2 3 4 5)\n(3 4 5)\n")
        code, out, _ = run(
            capsys, "group-check", "--degree", "5", "--generators", f"@{path}"
        )
        assert code == EXIT_OK and "END_IS_Z" in out

    def test_unreadable_generators_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run(
            capsys, "group-check", "--degree", "5", "--generators", f"@{missing}"
        )
        assert code == EXIT_USAGE
        assert out == "" and "cannot read generators" in err

    def test_degree_mismatch(self, capsys):
        code, _, err = run(
            capsys, "group-check", "--degree", "11", "--generators", "M12"
        )
        assert code == EXIT_USAGE

    def test_dump_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "group-check", "--degree", "5", "--generators", "A5",
            "--dump-action", "--dump-centralizer",
        )
        assert code == EXIT_OK
        assert "# action of" in out
        assert "# heart commutant: scalars" in out
        assert "\n2 4 4\n" in out  # matrix text header: modulus rows cols


class TestHomCheck:
    def test_pair(self, capsys):
        code, out, _ = run(
            capsys, "hom-check", "--poly", "x^3 - 2", "--poly2", "x^3 + x - 1"
        )
        assert code == EXIT_OK and "HOM_VANISHES" in out

    def test_same_polynomial_rejected(self, capsys):
        code, _, err = run(
            capsys, "hom-check", "--poly", "x^3 - 2", "--poly2", "x^3 - 2"
        )
        assert code == EXIT_USAGE


class TestIdentify:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "identify", "--poly", "x^5 - 2")
        assert code == EXIT_OK
        assert "F20" in out and "matched" in out
        assert "S5" in out and "rejected" in out

    def test_machine(self, capsys):
        code, out, _ = run(
            capsys, "identify", "--poly", "x^3 - 2", "--format", "machine"
        )
        data = json.loads(out)
        assert data["census"]["sampled"] == 200
        assert any(h["matched"] for h in data["hypotheses"])


class TestSelftest:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "12/12 fixture cases passed" in out

    def test_builds_each_group_once(self, capsys, monkeypatch):
        built = []
        alternating = fam.alternating_group
        monkeypatch.setattr(
            fam, "alternating_group", lambda n: built.append(n) or alternating(n)
        )
        code, _, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        # A5 serves three fixtures; A7 on 15 points builds A7 on its own
        assert built.count(5) == 1


@pytest.fixture
def work_counts(monkeypatch):
    """Count stabilizer-chain builds and conjugacy-class enumerations."""
    counts = {"chain builds": 0, "class enumerations": 0}
    build = vars(StabilizerChain)["build"].__func__
    classes = structure.conjugacy_class_representatives

    def counted_build(cls, *args, **kwargs):
        counts["chain builds"] += 1
        return build(cls, *args, **kwargs)

    def counted_classes(*args, **kwargs):
        counts["class enumerations"] += 1
        return classes(*args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "build", classmethod(counted_build))
    monkeypatch.setattr(structure, "conjugacy_class_representatives", counted_classes)
    return counts


def _twice(call, counts):
    """Run ``call`` twice; return each result with the work counts it made."""
    seen = []
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        seen.append((call(), dict(counts)))
    return seen


class TestProcessState:
    """A second identical call in one process repeats the first exactly."""

    @pytest.mark.parametrize("argv", [
        ("group-check", "--degree", "11", "--generators", "PSL2_11"),
        ("analyze", "--poly", "x^7 - 7*x + 3"),
        ("selftest",),
    ], ids=lambda argv: argv[0])
    def test_repeat_call_same_report_and_work(self, capsys, work_counts, argv):
        first, second = _twice(lambda: run(capsys, *argv), work_counts)
        assert first == second
        assert first[1]["chain builds"] > 0

    def test_library_repeat_call_same_work(self, work_counts):
        def analyze_a7():
            return analyze_jacobian(case_from_group(fam.alternating_group(7), 0)).to_json()

        first, second = _twice(analyze_a7, work_counts)
        assert first == second
        assert first[1]["chain builds"] > 0


class TestWorkCounts:
    def test_s12_needs_no_action_backtrack(self, capsys, work_counts):
        # A12 is simple and |A12| divides no r! for the indices the engine
        # asks, so the descent through A12 decides them all; the index-5
        # action-backtrack alone used to build 51 chains
        code, _, _ = run(capsys, "group-check", "--degree", "12", "--generators", "S12")
        assert code == EXIT_OK
        assert work_counts["chain builds"] <= 3

    def test_dump_centralizer_reuses_the_engine_commutant(self, capsys, monkeypatch):
        calls = []

        def counted(group):
            calls.append(group)
            return heart_centralizer(group)

        monkeypatch.setattr(cli, "heart_centralizer", counted)
        monkeypatch.setattr(engine, "heart_centralizer", counted)
        code, out, _ = run(
            capsys, "group-check", "--degree", "7", "--generators", "PSL2_7",
            "--dump-centralizer",
        )
        assert code == EXIT_OK and "# heart commutant" in out
        assert len(calls) == 1


def test_reader_closing_early_is_quiet():
    # the read end is closed before the command writes, so every write
    # to stdout meets a broken pipe
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys; from endocert.cli import main; sys.exit(main(sys.argv[1:]))"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, "group-check", "--degree", "5",
             "--generators", "A5", "--dump-action"],
            stdout=write_fd, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_fd)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_OK
