import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from endocert import cli, fflin, polygal
from endocert.cli import EXIT_OK, EXIT_USAGE, main
from endocert.fflin import MatF
from endocert.permgroup import Perm, PermGroup, StabilizerChain, structure, subsearch
from endocert.permgroup import families as fam
from endocert.repmod import CentralizerClass, heart_centralizer
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

    @pytest.mark.parametrize("poly", [
        "x", "x^2 - 1", "x^2 + 1", "x^4 - 1", "x^4 + 1", "x^4 - x - 1",
    ])
    def test_degree_below_3_or_4_refused_before_the_census(self, capsys, monkeypatch, poly):
        def refuse(f, p):
            raise AssertionError(f"prime {p} sampled")

        monkeypatch.setattr(polygal, "degree_pattern_mod_p", refuse)
        code, out, err = run(capsys, "analyze", "--poly", poly)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")


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

    @pytest.mark.parametrize("polys", [("x^4 - x - 1", "x^5 - x - 1"),
                                       ("x^5 - x - 1", "x^4 - x - 1"),
                                       ("x^2 + 1", "x^5 - x - 1")])
    def test_degree_refused_before_any_census(self, capsys, monkeypatch, polys):
        # degree 4 (the heart action is not faithful) and degree < 3 are
        # refused as analyze and group-check refuse them
        def refuse(f, p):
            raise AssertionError("census ran")

        monkeypatch.setattr(polygal, "degree_pattern_mod_p", refuse)
        code, out, err = run(capsys, "hom-check", "--poly", polys[0], "--poly2", polys[1])
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")


    @pytest.mark.parametrize("pair", [("x^7 - x - 1", "x^8 - x - 1"),
                                      ("x^3 - 2", "x^3 + x - 1"),
                                      ("x^5 - x - 1", "x^7 - 7*x + 3"),
                                      ("x^5 - 2", "x^5 - x - 1"),
                                      ("x^7 - 7*x + 3", "x^7 - x - 1")])
    def test_swapping_the_polynomials_keeps_the_answer(self, capsys, pair):
        # Hom(X, Y) = 0 exactly when Hom(Y, X) = 0
        answers = []
        for first, second in (pair, pair[::-1]):
            code, out, _ = run(capsys, "hom-check", "--poly", first, "--poly2", second,
                               "--format", "machine")
            report = json.loads(out)
            answers.append((code, report["outcome"],
                            [entry["status"] for entry in report["checklist"]]))
        assert answers[0] == answers[1]


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


class TestGrammar:
    """The hand-written parser: usage errors return 2, --help returns 0."""

    @pytest.mark.parametrize("argv", [
        (),
        ("frobnicate",),
        ("group-check", "--degree", "5", "--generators", "A5", "--verbose"),
        ("group-check", "--degree", "5", "--gen", "A5"),
        ("group-check", "--generators", "A5", "--degree"),
        ("analyze", "--poly", "x^5 - 2", "--char", "abc"),
        ("analyze", "--poly", "x^5 - 2", "--format", "xml"),
        ("group-check", "--generators", "A5"),
        ("hom-check", "--poly", "x^3 - 2"),
    ], ids=["no command", "unknown command", "unknown flag", "abbreviated flag",
            "missing value", "char not an integer", "format choice", "no degree",
            "no poly2"])
    def test_usage_error_returns_2(self, capsys, argv):
        try:
            code, out, err = run(capsys, *argv)
        except SystemExit as exc:
            pytest.fail(f"main raised SystemExit({exc.code})")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("group-check", "--degree", "5", "--generators", "A5", "--char", "3"),
        ("identify", "--poly", "x^5 - 2", "--prime-budget", "50"),
    ], ids=["group-check", "identify"])
    def test_equals_form_gives_the_same_report(self, capsys, argv):
        spaced = run(capsys, *argv, "--format", "machine")
        pairs = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
        joined = run(capsys, argv[0], *pairs, "--format=machine")
        assert spaced == joined and spaced[0] == EXIT_OK and spaced[1]

    def test_top_level_help(self, capsys):
        for flag in ("--help", "-h"):
            code, out, err = run(capsys, flag)
            assert code == EXIT_OK and err == ""
            assert all(command in out for command in cli._COMMANDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help_names_its_flags(self, capsys, command):
        code, out, err = run(capsys, command, "--help")
        assert code == EXIT_OK and err == ""
        flags = [name for name, _, _, _ in cli._COMMANDS[command][2]]
        assert flags and all(name in out for name in flags)
        others = {name for _, _, spec in cli._COMMANDS.values() for name, _, _, _ in spec}
        assert not [name for name in others - set(flags) if f"{name} " in out]

    @staticmethod
    def _imported_after(argv, modules):
        """Which of ``modules`` a fresh process holds after one ``main(argv)``."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = (
            "import io, sys, contextlib; from endocert.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            f"print(sorted({set(modules)!r} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_well_formed_run_imports_no_argparse_gettext_or_locale(self):
        argv = ["group-check", "--degree", "5", "--generators", "A5"]
        assert self._imported_after(argv, ["argparse", "gettext", "locale"]) == "[]"

    @pytest.mark.parametrize("argv", [
        ["group-check", "--degree", "5", "--generators", "A5"],
        ["analyze", "--poly", "x^5 - x - 1"],
    ])
    def test_run_imports_no_dataclasses_or_inspect(self, argv):
        # each would cost a cold start about 10 ms of imports, and the
        # dataclass decorator generates and compiles code for every record
        assert self._imported_after(argv, ["dataclasses", "inspect"]) == "[]"

    def test_no_module_imports_argparse(self):
        users = [path for path in SRC.rglob("*.py") if "import argparse" in path.read_text()]
        assert users == []

    def test_no_module_imports_dataclasses(self):
        pattern = re.compile(r"^\s*(?:import|from)\s+dataclasses\b", re.M)
        users = [path for path in SRC.rglob("*.py") if pattern.search(path.read_text())]
        assert users == []


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
        # PSL(2,7) on the projective line is no giant, so its order and
        # transitivity still come from a chain
        def analyze_psl2_7():
            return analyze_jacobian(case_from_group(fam.psl2(7), 0)).to_json()

        first, second = _twice(analyze_psl2_7, work_counts)
        assert first == second
        assert first[1]["chain builds"] > 0


class TestWorkCounts:
    def test_s12_needs_no_action_backtrack(self, capsys, work_counts):
        # A12 is simple and |A12| divides no r! for the indices the engine
        # asks, so the descent through A12 decides them all; the index-5
        # action-backtrack alone used to build 51 chains
        code, _, _ = run(capsys, "group-check", "--degree", "12", "--generators", "S12")
        assert code == EXIT_OK
        assert work_counts["chain builds"] == 0

    def test_agl4_2_backtrack_stays_within_its_budget(self, capsys, monkeypatch, work_counts):
        # AGL(4,2) on 16 points: index 7 once ran without limit, one chain
        # build on 23 points per generator-image assignment
        budget = 30
        monkeypatch.setattr(subsearch, "BACKTRACK_MAX_ASSIGNMENTS", budget)
        search = subsearch._homomorphism_search
        per_index = []

        def counted_search(group, r):
            before = work_counts["chain builds"]
            result = search(group, r)
            per_index.append(work_counts["chain builds"] - before)
            return result

        monkeypatch.setattr(subsearch, "_homomorphism_search", counted_search)
        generators = "\n".join([
            "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)(13 14)(15 16)",
            "(2 9 5 3 10 13 7 12 6 11 14 15 16 8 4)",
            "(3 4)(7 8)(11 12)(15 16)",
        ])
        code, out, _ = run(
            capsys, "group-check", "--degree", "16", "--generators", generators,
            "--format", "machine",
        )
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["outcome"] == "INCONCLUSIVE" and not report["conditional"]
        assert any("undecided" in c for c in report["caveats"])
        assert per_index and max(per_index) <= budget

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


class TestGiantsBuildNoChain:
    """S_n and A_n are recognised by Jordan's theorem, with no chain."""

    GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_reports.json").read_text())

    @pytest.mark.parametrize("name", ["S9", "A9", "S12", "A12", "S24", "A24"])
    def test_giant_report_needs_no_chain(self, capsys, monkeypatch, name):
        argv = ("group-check", "--degree", name[1:], "--generators", name, "--format", "machine")
        # the reference report: giant test off, order and transitivity from the chain
        with monkeypatch.context() as m:
            m.setattr(PermGroup, "giant", property(lambda self: None))
            code, chain_report, _ = run(capsys, *argv)
        assert code == EXIT_OK

        def refuse(cls, *args, **kwargs):
            raise AssertionError("stabilizer chain built")

        monkeypatch.setattr(StabilizerChain, "build", classmethod(refuse))
        code, report, _ = run(capsys, *argv)
        assert code == EXIT_OK
        # only the transitivity citation names how the degree was read
        chain_citation = "computed: stabilizer-chain basic orbit sizes"
        jordan_citation = "computed: Jordan's theorem and Atkinson's minimal-block test"
        assert chain_report.count(chain_citation) == report.count(jordan_citation) == 1
        assert report == chain_report.replace(chain_citation, jordan_citation)
        key = " ".join(argv[:-2])
        if key in self.GOLDEN:
            assert report == self.GOLDEN[key]


class TestSpinningWorkCounts:
    """The commutant kernel has k*d columns for k seeds: d on every bench heart."""

    @pytest.fixture
    def kernel_widths(self, monkeypatch):
        widths = []
        kernel = fflin.kernel

        def recorded(m):
            widths.append(m.ncols)
            return kernel(m)

        monkeypatch.setattr(fflin, "kernel", recorded)
        return widths

    @pytest.mark.parametrize("build, dim, cls", [
        (lambda: fam.mathieu_group(22), 1, CentralizerClass.SCALARS),
        (lambda: fam.mathieu_group(23), 1, CentralizerClass.SCALARS),
        (lambda: fam.mathieu_group(24), 1, CentralizerClass.SCALARS),
        (lambda: fam.symmetric_group(24), 1, CentralizerClass.SCALARS),
        (lambda: fam.alternating_group(24), 1, CentralizerClass.SCALARS),
        # F_2 x F_2: the heart has two non-isomorphic summands
        (lambda: fam.psl2(25), 2, CentralizerClass.NON_FIELD),
        (lambda: fam.alternating_group(5), 1, CentralizerClass.SCALARS),
        (lambda: fam.mathieu_group(12).point_stabilizer().restriction(range(1, 12)),
         1, CentralizerClass.SCALARS),
    ], ids=["M22", "M23", "M24", "S24", "A24", "PSL2_25", "A5", "M12_root_stabilizer"])
    def test_bench_hearts_are_spun(self, kernel_widths, build, dim, cls):
        report = heart_centralizer(build())
        assert (report.dim, report.classification) == (dim, cls)
        # the later, narrower kernels are the field test's
        assert max(kernel_widths) == report.algebra.d

    def test_two_four_cycles_take_two_seeds(self, kernel_widths):
        # e_0 spans only 3 of the 6 heart dimensions; d^2 would be 36 columns
        group = PermGroup(8, [Perm.parse("(1 2 3 4)(5 6 7 8)", 8)])
        assert heart_centralizer(group).dim == 12
        assert max(kernel_widths) <= 12

    def test_identity_takes_one_seed_per_unit_vector(self, kernel_widths):
        assert fflin.centralizer_basis([MatF.identity(4)]).dim == 16
        assert kernel_widths == [16]


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


@pytest.mark.parametrize("package", ["endocert", "endocert.permgroup", "endocert.verdict"])
def test_every_public_name_resolves(package):
    # a name left in __all__ after its function is deleted would break
    # `from endocert import *`
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
