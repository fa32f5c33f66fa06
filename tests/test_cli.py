"""Command-line surface: formats, determinism, exit codes, worker pool."""

import concurrent.futures
import contextlib
import io
import itertools
import json
import pickle
import subprocess
import sys
import types
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab import cli, criteria, families, verify
from kstab.cli import main, parse_spec, render_to_string
from kstab.errors import InvalidParameterError, KstabError
from kstab.families import FamilyTag, instance_record, resolve_anticanonical
from kstab.poly import rational_from_str

SRC_DIR = Path(cli.__file__).resolve().parent


def run_json(args):
    return json.loads(render_to_string(args + ["--format", "json"]))


class TestKeCommand:
    def test_sweep_shape_and_verdicts(self):
        payload = run_json(["ke", "--family", "blpp", "--n", "4..12", "--p", "all", "--jobs", "1"])
        assert payload["schema_version"] == 1
        rows = payload["rows"]
        assert len(rows) == sum(n - 3 for n in range(4, 13))
        ke_rows = [(r["params"]["n"], r["params"]["p"]) for r in rows
                   if r["verdict"] == "kahler-einstein"]
        assert ke_rows == [(n, n // 2) for n in range(4, 13) if n % 2 == 0]

    def test_witnesses_are_fraction_strings(self):
        payload = run_json(["ke", "--family", "quade", "--n", "5", "--jobs", "1"])
        row = payload["rows"][0]
        assert row["witness"]["xi_x"] == "1/5"
        assert row["witness"]["xi_y"] == "0/1"
        assert row["witness_decimal"]["xi_x"] == "0.2"

    def test_witnesses_beyond_the_int_to_str_limit_render(self, capsys):
        args = ["ke", "--family", "quade", "--n", "1500", "--format", "json", "--jobs", "1"]
        assert main(args) == 0
        mass = json.loads(capsys.readouterr().out)["rows"][0]["witness"]["mass"]
        expected = criteria.ke_classify(resolve_anticanonical(FamilyTag.QUAD_E, 1500)).mass
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # only to write the expected digits
        try:
            assert max(len(str(expected.numerator)), len(str(expected.denominator))) > limit
            assert mass == f"{expected.numerator}/{expected.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_error_rows_keep_table_rectangular(self):
        # p = 4 fits only n = 6 of 4..6
        args = ["ke", "--family", "blpp", "--n", "4..6", "--p", "4", "--jobs", "1"]
        payload = run_json(args)
        assert [r["verdict"] for r in payload["rows"]] == (
            ["error:invalid-parameter"] * 2 + ["not-k-semistable"])
        lines = render_to_string(args + ["--format", "csv"]).splitlines()
        assert len(lines) == 4
        assert len({line.count(",") for line in lines}) == 1

    def test_row_order_is_parameter_order(self):
        payload = run_json(["ke", "--family", "blqq", "--n", "6..8", "--p", "all", "--jobs", "1"])
        params = [(r["params"]["n"], r["params"]["p"]) for r in payload["rows"]]
        assert params == sorted(params)


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_identical_reruns(self, fmt):
        args = ["ke", "--family", "quadpm", "--n", "5..9", "--format", fmt, "--jobs", "1"]
        first = render_to_string(args)
        # the second render recomputes every row, as a fresh process would
        families.resolve.cache_clear()
        assert render_to_string(args) == first

    def test_jobs_do_not_change_output(self):
        base = ["mabuchi", "--family", "blpp", "--n", "4..8", "--p", "all", "--format", "json"]
        serial = render_to_string(base + ["--jobs", "1"])
        parallel = render_to_string(base + ["--jobs", "2"])
        assert serial == parallel

    def test_csv_header(self):
        for family_args, prefix in (
            (["--family", "blpp", "--n", "4", "--p", "2"], "family,n,p,verdict,mass,bary_t,xi_t"),
            (["--family", "quadpt", "--n", "5"], "family,n,verdict,mass,bary_x,bary_y,xi_x,xi_y"),
        ):
            text = render_to_string(["ke"] + family_args + ["--format", "csv", "--jobs", "1"])
            header = text.splitlines()[0]
            assert header.startswith(prefix)


class TestMemos:
    def test_verify_bytes_do_not_depend_on_the_memos(self, monkeypatch):
        args = ["verify", "--suite", "all", "--max-n", "10", "--format", "json"]
        memoized = render_to_string(args)
        cached = families._resolve

        def uncached(*call_args):
            cached.cache_clear()
            return cached(*call_args)

        uncached.cache_clear = cached.cache_clear
        monkeypatch.setattr(families, "_resolve", uncached)
        assert render_to_string(args) == memoized

    def test_determinism_check_integrates_in_every_render(self, monkeypatch):
        calls = []
        integrate = families.integrate_factored

        def counting(weight, domain):
            calls.append(None)
            return integrate(weight, domain)

        per_render = []
        render = cli.render_to_string

        def recording(args):
            before = len(calls)
            text = render(args)
            per_render.append(len(calls) - before)
            return text

        monkeypatch.setattr(families, "integrate_factored", counting)
        monkeypatch.setattr(cli, "render_to_string", recording)
        assert verify._cli_determinism_check().passed
        assert len(per_render) == 4 and all(per_render), per_render


class TestExitCodes:
    def test_invalid_range_is_one(self, capsys):
        assert main(["ke", "--family", "blpp", "--n", "9..5"]) == 1
        assert "field --n" in capsys.readouterr().err

    @pytest.mark.parametrize("args, code, message", [
        (["mh", "--n", "4", "--p", "-2..1"], 1, "field --p: out of range for every requested n"),
        (["ke", "--family", "blpp", "--n", "-3..-1"], 1, "field --n: every requested n is below"),
        (["coupled", "--k", "-1..1"], 1, "field --k: must reach at least 2"),
        (["ke", "--family", "quade", "--n", "-x"], 1, "field --n: cannot parse range '-x'"),
        (["dump-instance", "--family", "blpp", "--n", "5", "--p", "2", "--divisor", "-1/2,1,1"],
         2, "segment [1/2, -1/2] is empty"),
    ])
    def test_value_starting_with_minus_reaches_its_parser(self, capsys, args, code, message):
        assert main(args + ["--jobs", "1"]) == code
        err = capsys.readouterr().err
        assert message in err and "expected one argument" not in err

    @pytest.mark.parametrize("args, message", [
        (["ke", "--family", "blpp", "--n", "4..100000", "--p", "all"], "field --n: range"),
        (["mh", "--n", "4..400", "--p", "all"], "field --n: 79003 rows up to n = 400"),
        (["coupled", "--k", "3..30000"], "field --k: 29998 rows up to n = 60001"),
        (["verify", "--max-n", "100000"], "field --max-n: must be at most"),
        (["coupled", "--k", "20", "--bisections", "100000"], "field --bisections: must be at most"),
        (["verify", "--max-n", "81"], "field --max-n: must be at most 80"),
        (["coupled", "--k", "4", "--bisections", "201"], "field --bisections: must be at most 200"),
    ])
    def test_oversized_invocation_is_one_before_any_row(self, monkeypatch, capsys, args, message):
        def refuse(*_):
            raise AssertionError("an oversized invocation ran")

        monkeypatch.setattr(cli, "_execute_tasks", refuse)
        monkeypatch.setattr(verify, "verify_theorems", refuse)
        assert main(args + ["--jobs", "1"]) == 1
        assert message in capsys.readouterr().err

    def test_oversized_sweep_builds_no_rows(self, monkeypatch, capsys):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a row of an oversized sweep was built")

        monkeypatch.setattr(cli, "Task", refuse)
        assert main(["ke", "--family", "blpp", "--n", "4..50003", "--p", "all"]) == 1
        assert "field --n: 1250025000 rows up to n = 50003" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--k", "3", "--end", "1/2,1/2,1/2"], "field --end: 1/2,1/2,1/2 is not an ample pair at k = 3"),
        (["--k", "3", "--start", "1,2"], "field --start: blpp divisors take 3 coefficients, got 2"),
        (["--k", "2..4", "--start", "5/4,1/4,3/4"],
         "field --end: the built-in endpoint 0,1/2,0 is not an ample pair at k = 2"),
    ])
    def test_coupled_endpoint_off_the_ample_region_is_one(self, capsys, args, message):
        assert main(["coupled", *args, "--jobs", "1"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["coupled", "--k=3", "--end="], "field --end: no coefficients given"),
        (["coupled", "--k=3", "--start="], "field --start: no coefficients given"),
        (["dump-instance", "--family", "quade", "--n", "5", "--divisor="],
         "field --divisor: no coefficients given"),
    ])
    def test_empty_flag_value_is_one(self, capsys, args, message):
        # an empty value is not an absent flag: it never falls back to a default
        assert main(args + ["--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("args", [
        ["ke", "--family", "blpp", "--n", "4..40", "--p", "all"],
        ["ke", "--family", "quade", "--n", "162"],
        ["coupled", "--k", "20", "--bisections", "40"],
        ["verify", "--suite", "all", "--max-n", "40"],
        ["coupled", "--k", "20", "--bisections", "200"],
    ])
    def test_largest_documented_invocations_are_admitted(self, args):
        parse_spec(args)

    @pytest.mark.parametrize("args, message", [
        (["dump-instance", "--family", "quade", "--n", "9", "--divisor", "9" * 4999 + "x"],
         "field --divisor: cannot parse rational '999999999999999999999999... (5000 characters)'"),
        (["coupled", "--k", "3", "--end", "1" + "0" * 4995 + ",1,1"],
         "field --end: 100000000000000000000000... (5000 characters) is not an ample pair"),
        (["ke", "--family", "quade", "--n", "9" * 5000],
         "field --n: cannot parse range '999999999999999999999999... (5000 characters)'"),
        (["ke", "--family", "quade", "--n", "5", "--jobs", "9" * 4999 + "x"],
         "field --jobs: cannot parse integer '999999999999999999999999... (5000 characters)'"),
        (["verify", "--max-n", "9" * 4999 + "x"],
         "field --max-n: cannot parse integer '999999999999999999999999... (5000 characters)'"),
        (["coupled", "--k", "3", "--bisections", "9" * 4999 + "x"],
         "field --bisections: cannot parse integer '999999999999999999999999... (5000 characters)'"),
        (["dump-instance", "--family", "quade", "--n", "9" * 4999 + "x"],
         "field --n: cannot parse integer '999999999999999999999999... (5000 characters)'"),
        (["dump-instance", "--family", "blpp", "--n", "6", "--p", "9" * 4999 + "x"],
         "field --p: cannot parse integer '999999999999999999999999... (5000 characters)'"),
    ])
    def test_long_value_gets_a_short_message(self, capsys, args, message):
        # a trailing --jobs would override the value under test
        assert main(args if "--jobs" in args else args + ["--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err) < 200

    @pytest.mark.parametrize("flag, args", [
        ("--divisor", ["dump-instance", "--family", "quade", "--n", "7"]),
        ("--end", ["coupled", "--k", "3"]),
    ])
    @pytest.mark.parametrize("value", ["5/2,,4", ",5/2,4", "5/2,4,", "5/2, ,4"])
    def test_empty_coefficient_is_one(self, capsys, flag, args, value):
        assert main(args + [flag, value, "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert f"field {flag}: empty coefficient in {value!r}" in captured.err and captured.out == ""

    def test_missing_argument_is_one(self, capsys):
        assert main(["ke", "--family", "blpp"]) == 1

    def test_bad_rational_is_one(self, capsys):
        assert main(["dump-instance", "--family", "blpp", "--n", "6", "--p", "2",
                     "--divisor", "2.5,1,1"]) == 1
        assert "--divisor" in capsys.readouterr().err

    def test_ke_takes_no_divisor(self, capsys):
        assert main(["ke", "--family", "blpp", "--n", "5", "--p", "2",
                     "--divisor", "3,1,1", "--jobs", "1"]) == 1
        assert "--divisor" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--family", "blpp", "--n", "6", "--p", "3", "--divisor", "1,2"],
         "field --divisor: blpp divisors take 3 coefficients, got 2"),
        (["--family", "blpp", "--n", "6", "--p", "3", "--divisor", "3,1,1,1"],
         "field --divisor: blpp divisors take 3 coefficients, got 4"),
        (["--family", "blpp", "--n", "6", "--p", "1"],
         "field --n: blpp requires 2 <= p <= n-2, got n=6, p=1"),
        (["--family", "blpp", "--n", "3", "--p", "2"],
         "field --n: blpp requires 2 <= p <= n-2, got n=3, p=2"),
        (["--family", "quade", "--n", "4"], "field --n: quade requires n >= 5, got n=4"),
    ])
    def test_member_refused_by_the_library_is_one(self, capsys, args, message):
        assert main(["dump-instance", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"kstab: invalid invocation: {message}\n" and captured.out == ""

    def test_dump_instance_accepts_the_anticanonical_class_of_blqq(self, capsys):
        args = ["dump-instance", "--family", "blqq", "--n", "6", "--p", "3"]
        assert main(args) == 0
        anticanonical = capsys.readouterr()
        assert main(args + ["--divisor", "2,2"]) == 0
        assert capsys.readouterr() == anticanonical

    @pytest.mark.parametrize("args", [
        ["--family", "blpp", "--n", "6", "--p", "3", "--divisor", "1,0,0"],
        ["--family", "quade", "--n", "6", "--divisor", "0,1"],
    ], ids=["segment", "polygon"])
    def test_degenerate_member_is_two(self, capsys, args):
        assert main(["dump-instance", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("kstab: degenerate: ") and captured.out == ""

    def test_error_rows_are_two(self, capsys):
        code = main(["ke", "--family", "blpp", "--n", "4..6", "--p", "4", "--jobs", "1"])
        capsys.readouterr()
        assert code == 2

    def test_error_row_notes_go_to_stderr(self, capsys):
        args = ["ke", "--family", "blpp", "--n", "4..6", "--p", "4", "--format", "csv", "--jobs", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 2
        for n, line in zip((4, 5), err):
            assert line.startswith(f"kstab: blpp n={n},p=4: error:invalid-parameter: ")
            assert "2 <= p <= n-2" in line
        assert captured.out == render_to_string(args)
        assert captured.out.splitlines()[1] == "blpp,4,4,error:invalid-parameter,,,,,,"

    def test_unwritable_out_is_one(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code = main(["ke", "--family", "blpp", "--n", "4", "--p", "2", "--format", "json",
                     "--out", str(target), "--jobs", "1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"kstab: cannot write {target}: ")
        assert not target.exists()

    def test_clean_sweep_is_zero(self, capsys):
        assert main(["ke", "--family", "blpp", "--n", "4..6", "--p", "all", "--jobs", "1"]) == 0
        capsys.readouterr()

    def test_entirely_out_of_range_is_one(self, capsys):
        assert main(["ke", "--family", "quade", "--n", "3"]) == 1
        assert "--n" in capsys.readouterr().err
        assert main(["ke", "--family", "blpp", "--n", "4", "--p", "9"]) == 1
        assert "--p" in capsys.readouterr().err

    def test_partially_valid_sweep_emits_error_rows(self, capsys):
        # p = 9 only fits n >= 11; smaller n still get (error) rows
        code = main(["ke", "--family", "blpp", "--n", "4..11", "--p", "9",
                     "--format", "csv", "--jobs", "1"])
        out = capsys.readouterr().out
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 9
        for n, line in zip(range(4, 11), lines[1:8]):
            assert line.startswith(f"blpp,{n},9,error:invalid-parameter")
        assert lines[8].startswith("blpp,11,9,not-k-semistable")

    def test_verify_failures_reported_not_thrown(self, capsys):
        # the suite contains a failing check, yet the run completes with 0
        assert main(["verify", "--suite", "ke", "--max-n", "10"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "[PASS]" in out


class TestCoupledCommand:
    def test_certificate_row(self):
        payload = run_json(["coupled", "--k", "4", "--bisections", "12", "--jobs", "1"])
        row = payload["rows"][0]
        assert row["verdict"] == "certificate"
        assert row["witness"]["width"] == f"1/{2 ** 12}"
        assert rational_from_str(row["witness"]["residual_lo"]) > 0
        assert rational_from_str(row["witness"]["residual_hi"]) < 0

    def test_no_bracket_row(self):
        start = "9/4,1/4,3/4"
        payload = run_json(["coupled", "--k", "4", "--bisections", "8",
                            "--start", start, "--end", start, "--jobs", "1"])
        assert payload["rows"][0]["verdict"] == "no-bracket"

    def test_failing_rows_keep_their_messages(self, capsys):
        # k = 2: the built-in end (0, 1/2, 0) is refused by the ampleness
        # check at s = 1, before its one-point domain is ever built
        assert main(["coupled", "--k", "2..3", "--format", "json", "--jobs", "1"]) == 2
        assert capsys.readouterr().err == (
            "kstab: blpp k=2: error:contract-breach: segment leaves the ample region at parameter 1\n"
            "kstab: blpp k=3: no-bracket: endpoint residuals 690/28273 and 2946/823669"
            " do not have strictly opposite signs\n")


class TestOtherCommands:
    def test_mabuchi_quadpt_row(self):
        payload = run_json(["mabuchi", "--family", "quadpt", "--n", "5", "--jobs", "1"])
        row = payload["rows"][0]
        assert row["verdict"] == "not-exists"
        assert row["witness"]["ratio"] == "49/20"

    def test_mh_rows(self):
        payload = run_json(["mh", "--n", "5", "--p", "all", "--jobs", "1"])
        assert [r["verdict"] for r in payload["rows"]] == ["certificate"] * 2
        assert payload["rows"][0]["witness"]["moment_integral"] == "0/1"

    def test_dump_instance_matches_record(self):
        text = render_to_string(["dump-instance", "--family", "quade", "--n", "5"])
        assert json.loads(text) == instance_record(resolve_anticanonical(FamilyTag.QUAD_E, 5))

    def test_dump_instance_with_divisor(self):
        text = render_to_string(["dump-instance", "--family", "blpp", "--n", "6", "--p", "2",
                                 "--divisor", "3,1/2,1"])
        record = json.loads(text)
        assert record["divisor"] == ["3/1", "1/2", "1/1"]
        assert record["ample"] is True

    def test_dump_instance_beyond_the_int_to_str_limit(self, capsys):
        divisor = (F(1, 10 ** 3999 + 7), F(1, 10 ** 3999 + 9))
        args = ["dump-instance", "--family", "quade", "--n", "9",
                "--divisor", ",".join(f"1/{v.denominator}" for v in divisor)]
        assert main(args) == 0
        vertices = json.loads(capsys.readouterr().out)["domain"]["vertices"]
        expected = families.quad_resolve(FamilyTag.QUAD_E, 9, divisor).domain.vertices
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # only to write the expected digits
        try:
            assert max(len(str(y.denominator)) for _, y in expected) > limit
            assert vertices == [[f"{c.numerator}/{c.denominator}" for c in v] for v in expected]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_dump_instance_reads_back_any_rational(self, capsys):
        # 4401-digit denominators, past the interpreter's int-to-str limit of 4300
        texts = ("1" + "0" * 4400, "1" + "0" * 4399 + "1")
        args = ["dump-instance", "--family", "quade", "--n", "9",
                "--divisor", ",".join(f"1/{t}" for t in texts)]
        assert main(args) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert captured.err == ""
        assert [rational_from_str(v) for v in record["divisor"]] == [
            F(1, 10 ** 4400), F(1, 10 ** 4400 + 1)]
        expected = families.quad_resolve(
            FamilyTag.QUAD_E, 9, (F(1, 10 ** 4400), F(1, 10 ** 4400 + 1))).domain.vertices
        assert [tuple(map(rational_from_str, v)) for v in record["domain"]["vertices"]] == list(expected)

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(["ke", "--family", "blpp", "--n", "4", "--p", "2",
                     "--format", "json", "--out", str(target), "--jobs", "1"])
        assert code == 0
        assert json.loads(target.read_text())["rows"][0]["verdict"] == "kahler-einstein"


class TestSpecParsing:
    def test_jobs_environment_is_ignored(self, monkeypatch):
        # --jobs is the one way to size the pool; without it, the available parallelism
        monkeypatch.setenv("KSTAB_JOBS", "3")
        monkeypatch.setattr(cli, "_available_cpus", lambda: 5)
        args = ["ke", "--family", "blpp", "--n", "4", "--p", "2"]
        assert parse_spec(args).jobs == 5
        assert parse_spec(args + ["--jobs", "1"]).jobs == 1

    def test_jobs_default_counts_only_the_cpus_this_process_may_use(self, monkeypatch):
        # a process pinned to one CPU (taskset, a cpuset) gets one worker, not cpu_count
        args = ["ke", "--family", "blpp", "--n", "4", "--p", "2"]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert parse_spec(args).jobs == 1
        # without an affinity mask, the CPU count, or 1 when that is unknown
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert parse_spec(args).jobs == 8
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert parse_spec(args).jobs == 1

    def test_readme_examples_parse(self):
        # every line of the README's command-line block is a valid invocation
        readme = (SRC_DIR.parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```")[1]
        lines = [line.split() for line in block.splitlines() if line.strip()]
        assert len(lines) == 7 and all(line[0] == "kstab" for line in lines)
        for line in lines:
            parse_spec(line[1:])

    def test_p_rejected_for_quad_families(self):
        with pytest.raises(cli.SpecError):
            parse_spec(["ke", "--family", "quade", "--n", "5", "--p", "2"])

    def test_divisor_rejected_for_blqq(self):
        with pytest.raises(cli.SpecError):
            parse_spec(["dump-instance", "--family", "blqq", "--n", "6", "--p", "3",
                        "--divisor", "1,1"])

    def test_divisor_rejected_for_a_family_without_ampleness_rows(self, monkeypatch):
        monkeypatch.setitem(families.FAMILY_DATA, FamilyTag.QUAD_E,
                            families.FAMILY_DATA[FamilyTag.QUAD_E]._replace(ample=()))
        with pytest.raises(cli.SpecError, match="^field --divisor: quade exposes only the anticanonical divisor$"):
            parse_spec(["dump-instance", "--family", "quade", "--n", "9", "--divisor", "3,6"])


@st.composite
def _dump_members(draw):
    """dump-instance's --family, --n, --p and a well-formed --divisor: none,
    any 1-4 rationals, or the member's anticanonical class when it has one."""
    tag = draw(st.sampled_from(list(FamilyTag)))
    n = draw(st.integers(-2, 12))
    p = draw(st.none() | st.integers(-2, 12))
    choices = [st.none(), st.lists(st.fractions(-5, 5, max_denominator=6), min_size=1, max_size=4)]
    try:
        choices.append(st.just(families.anticanonical_divisor(tag, n, p)))
    except InvalidParameterError:
        pass
    return tag, n, p, draw(st.one_of(choices))


class TestOneGate:
    @settings(max_examples=300, deadline=None)
    @given(member=_dump_members())
    def test_dump_instance_is_refused_exactly_when_the_library_refuses(self, member):
        tag, n, p, divisor = member
        argv = ["dump-instance", f"--family={tag.value}", f"--n={n}"]
        argv += [] if p is None else [f"--p={p}"]
        argv += [] if divisor is None else ["--divisor=" + ",".join(map(str, divisor))]
        try:
            validated = families._validated(tag, n, p, divisor)
        except InvalidParameterError:
            validated = None
        try:
            spec = parse_spec(argv)
        except cli.SpecError:
            assert validated is None or (tag.takes_p and p is None)
        else:
            assert spec.member == validated

    def test_coupled_tasks_carry_their_segment(self, monkeypatch):
        given = parse_spec(["coupled", "--k", "5..6", "--start", "3,1/4,3/4", "--bisections", "4",
                            "--jobs", "1"]).tasks
        assert [(t.start, t.end) for t in given] == [
            ((F(3), F(1, 4), F(3, 4)), criteria.coupled_default_endpoints(k)[1]) for k in (5, 6)]
        built_in = parse_spec(["coupled", "--k", "1..3", "--bisections", "4", "--jobs", "1"]).tasks
        assert [(t.start, t.end) for t in built_in] == [
            (None, None), *(criteria.coupled_default_endpoints(k) for k in (2, 3))]
        assert pickle.loads(pickle.dumps(given + built_in)) == given + built_in

        def refuse(k):
            raise AssertionError("a row derived its built-in ends again")

        monkeypatch.setattr(criteria, "coupled_default_endpoints", refuse)
        assert [cli._run_task(t)["verdict"] for t in given + built_in] == [
            "certificate", "certificate", "error:invalid-parameter", "error:contract-breach",
            "no-bracket"]


class TestTasks:
    def test_tasks_are_picklable_records(self):
        spec = parse_spec(["coupled", "--k", "3..4", "--bisections", "5", "--jobs", "1"])
        tasks = spec.tasks
        assert [t.params for t in tasks] == [{"k": 3}, {"k": 4}]
        assert pickle.loads(pickle.dumps(tasks)) == tasks

    def test_error_row_takes_params_from_the_task(self):
        spec = parse_spec(["ke", "--family", "blpp", "--n", "5", "--p", "3..4", "--jobs", "1"])
        rows = [cli._run_task(t) for t in spec.tasks]
        assert [(r["family"], r["params"], r["verdict"]) for r in rows] == [
            ("blpp", {"n": 5, "p": 3}, "not-k-semistable"),
            ("blpp", {"n": 5, "p": 4}, "error:invalid-parameter"),
        ]

    def test_pool_failure_falls_back_visibly(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SERIAL_BUDGET_S", 0)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        args = ["ke", "--family", "blpp", "--n", "4..6", "--p", "all", "--format", "json"]
        serial = render_to_string(args + ["--jobs", "1"])
        capsys.readouterr()

        def no_pool(*_args, **_kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert render_to_string(args + ["--jobs", "2"]) == serial
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "OSError: no semaphores" in err[0] and "serially" in err[0]

    def test_pool_broken_mid_sweep_falls_back_visibly(self, monkeypatch, capsys):
        # the pool returns two rows and breaks; the serial loop runs the rest
        monkeypatch.setattr(cli, "SERIAL_BUDGET_S", 0)
        args = ["ke", "--family", "blpp", "--n", "4..6", "--p", "all", "--format", "json"]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        sizes, _, _ = self._record_pools(monkeypatch, break_after=2)
        assert main(args + ["--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial and sizes == [2]
        err = captured.err.splitlines()
        assert len(err) == 1
        assert "BrokenProcessPool: a worker died" in err[0] and "serially" in err[0]

    @staticmethod
    def _record_pools(monkeypatch, cpus=64, break_after=None) -> tuple[list, list, list]:
        """Fake pools record their size, and the chunk size and row count of each map.
        cli sees ``cpus`` CPUs; with ``break_after``, a map returns that many rows
        and then breaks as a pool whose worker died."""
        sizes, chunks, mapped = [], [], []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items, chunksize=1):
                assert isinstance(chunksize, int) and chunksize >= 1
                chunks.append(chunksize)
                mapped.append(len(items))
                if break_after is None:
                    return map(fn, items)

                def broken():
                    yield from map(fn, items[:break_after])
                    raise BrokenProcessPool("a worker died")
                return broken()

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
        return sizes, chunks, mapped

    @staticmethod
    def _fake_clock(monkeypatch, row_s) -> None:
        """cli reads a clock on which the i-th row run (from 0) takes ``row_s(i)`` seconds."""
        now = [0.0]
        run_task = cli._run_task
        done = itertools.count()

        def timed_row(task):
            now[0] += row_s(next(done))
            return run_task(task)

        monkeypatch.setattr(cli, "_run_task", timed_row)
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))

    def test_sweep_under_the_budget_starts_no_pool(self, monkeypatch):
        sizes, _, _ = self._record_pools(monkeypatch)
        self._fake_clock(monkeypatch, lambda i: 0.0)
        args = ["ke", "--family", "blpp", "--n", "4..12", "--p", "all", "--format", "json"]
        assert render_to_string(args + ["--jobs", "64"]) == render_to_string(args + ["--jobs", "1"])
        assert sizes == []

    def _pooled_on_fake_clock(self, monkeypatch, n, row_s) -> list[int]:
        """The rows each pool got in a blpp sweep over ``n`` at --jobs 2, whose
        bytes must equal --jobs 1's; pools have 2 workers and chunks of rows // 8."""
        sizes, chunks, mapped = self._record_pools(monkeypatch)
        self._fake_clock(monkeypatch, row_s)
        monkeypatch.setattr(cli, "SERIAL_BUDGET_S", 0.5)
        args = ["ke", "--family", "blpp", "--n", n, "--p", "all", "--format", "json"]
        # the pooled render first, so the clock's row numbers are its own
        assert render_to_string(args + ["--jobs", "2"]) == render_to_string(args + ["--jobs", "1"])
        assert (sizes, chunks) == ([2] * len(mapped), [rows // 8 for rows in mapped])
        return mapped

    @pytest.mark.parametrize("row_s, serial", [
        (lambda i: 0.2, 1),  # 44 rows left at 0.2 s predict 8.8 s
        (lambda i: 0.011, 45),  # 44 rows left at 0.011 s predict 0.484 s
        (lambda i: 0.001 if i < 10 else 0.1, 12),  # 0.21 s / 12 rows * 33 left = 0.58 s
    ])
    def test_rows_past_the_budget_go_to_the_pool(self, monkeypatch, row_s, serial):
        # 45 rows against a 0.5 s budget: once the rows done predict 0.5 s for
        # the rows left, those go to the pool
        pooled = [45 - serial] if serial < 45 else []
        assert self._pooled_on_fake_clock(monkeypatch, "4..12", row_s) == pooled

    def test_one_short_noisy_row_starts_no_pool(self, monkeypatch):
        # 200 rows: the first one's 3 ms predict 0.597 s for the 199 left, but
        # 3 ms is under a tenth of the budget; by 50 ms (48 rows) the 152 left
        # predict 0.16 s
        row_s = lambda i: 0.003 if i == 0 else 0.001
        assert self._pooled_on_fake_clock(monkeypatch, "8..23", row_s) == []

    def test_pool_is_sized_to_the_work(self, monkeypatch):
        # with no budget the first of 4 rows runs serially and the pool gets 3
        monkeypatch.setattr(cli, "SERIAL_BUDGET_S", 0)
        sizes, _, _ = self._record_pools(monkeypatch)
        args = ["ke", "--family", "blpp", "--n", "4..7", "--p", "2", "--format", "json"]
        assert render_to_string(args + ["--jobs", "64"]) == render_to_string(args + ["--jobs", "1"])
        assert sizes == [3]

    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (1, [])])
    def test_pool_is_capped_at_the_cpus(self, monkeypatch, cpus, sizes):
        # --jobs has no upper bound, so the CPUs bound the pool; one CPU runs serially
        monkeypatch.setattr(cli, "SERIAL_BUDGET_S", 0)
        recorded, _, _ = self._record_pools(monkeypatch, cpus=cpus)
        args = ["ke", "--family", "blpp", "--n", "4..7", "--p", "2", "--format", "json"]
        assert render_to_string(args + ["--jobs", "3000"]) == render_to_string(args + ["--jobs", "1"])
        assert recorded == sizes

    def test_rows_go_to_the_pool_in_chunks(self, monkeypatch):
        # the 44 rows after the first on 2 workers: four chunks a worker is
        # 44 // 8 = 5 rows each; 3 rows left on 3 workers cannot be split below one row
        monkeypatch.setattr(cli, "SERIAL_BUDGET_S", 0)
        sizes, chunks, _ = self._record_pools(monkeypatch)
        for n, p, jobs in (("4..12", "all", 2), ("4..7", "2", 64)):
            render_to_string(["ke", "--family", "blpp", "--n", n, "--p", p,
                              "--format", "json", "--jobs", str(jobs)])
        assert sizes == [2, 3] and chunks == [5, 1]

    def test_chunked_pool_keeps_row_order(self, monkeypatch):
        monkeypatch.setattr(cli, "SERIAL_BUDGET_S", 0)  # a real 2-worker pool
        args = ["ke", "--family", "blpp", "--n", "4..12", "--p", "all", "--format", "csv"]
        assert render_to_string(args + ["--jobs", "2"]) == render_to_string(args + ["--jobs", "1"])

    def test_import_starts_no_pool_machinery(self):
        # a fresh interpreter: this one has imported concurrent.futures already
        code = "import sys, kstab.cli; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=SRC_DIR.parent)
        assert out.stdout.strip() == "False"

    def test_import_loads_no_dataclasses_machinery(self):
        # every kstab process pays for its imports; dataclasses brings inspect, ast and dis
        code = ("import sys; before = set(sys.modules); import kstab.cli; "
                "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=SRC_DIR.parent)
        assert out.stdout.strip() == "[]"

    def test_only_verify_imports_the_suites(self):
        # a fresh interpreter parses a sweep and a verify invocation without kstab.verify
        code = ("import sys; from kstab.cli import parse_spec; "
                "parse_spec(['ke', '--family', 'blqq', '--n', '6..9', '--p', 'all']); "
                "parse_spec(['verify', '--suite', 'all', '--max-n', '16']); "
                "print('kstab.verify' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=SRC_DIR.parent)
        assert out.stdout.strip() == "False"

    def test_verify_starts_no_pool(self, monkeypatch, capsys):
        sizes, _, _ = self._record_pools(monkeypatch)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
        assert main(["verify", "--suite", "properties", "--max-n", "7"]) == 0
        assert "byte-identical json/csv" in capsys.readouterr().out
        assert sizes == []


class TestNegativeControl:
    def test_tampered_closed_form_is_reported(self, monkeypatch):
        monkeypatch.setattr(criteria, "blqq_x_moment_closed", lambda k, l: F(0))
        results = verify.check_closed_forms(10)
        tampered = [r for r in results if "beta expansion" in r.name]
        assert len(tampered) == 1 and not tampered[0].passed

    def test_untampered_passes(self):
        results = verify.check_closed_forms(10)
        assert all(r.passed for r in results)


class TestExactnessFirewall:
    CORE_MODULES = ("errors.py", "poly.py", "polytope.py", "quadrature.py",
                    "families.py", "criteria.py")
    BANNED = ("float(", ": float", "-> float", "Decimal(", "import decimal",
              "from decimal", "math.sqrt", "numpy", "time.", "random.", ".hypot", "0.5")

    def test_core_modules_have_no_approximate_arithmetic(self):
        for name in self.CORE_MODULES:
            source = (SRC_DIR / name).read_text(encoding="utf-8")
            for token in self.BANNED:
                assert token not in source, f"{token!r} found in {name}"

    def test_rendering_lives_only_in_cli(self):
        assert "Decimal" in (SRC_DIR / "cli.py").read_text(encoding="utf-8")


# Bounded argv for every command: out-of-range and malformed values on
# purpose.  verify always names a quick suite and a small --max-n (the
# defaults run the full suite at n = 40, which the acceptance tests cover).
_ints = st.integers(-2, 12)
_small = st.integers(-1, 6)
_ranges = st.one_of(
    _ints.map(str),
    st.tuples(_ints, _ints).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(["all", "", "3..", "..4", "1..2..3", "x", " 5 ", "-", "-2..", "--1", "-x"]),
)
_small_ranges = st.one_of(_small.map(str), st.tuples(_small, _small).map(lambda t: f"{t[0]}..{t[1]}"))
_coefficients = st.one_of(
    st.integers(-3, 5).map(str),
    st.tuples(st.integers(-3, 5), st.integers(-1, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["", "x", "1.5", " "]),
)
_divisors = st.lists(_coefficients, max_size=4).map(",".join)
# coupled endpoints: malformed, or 1-4 rationals near the ample region
_endpoints = st.one_of(_divisors, st.lists(
    st.builds(F, st.integers(-1, 6), st.integers(1, 4)).map(str), min_size=1, max_size=4,
).map(",".join))
_families = st.sampled_from(sorted(t.value for t in FamilyTag) + ["nope"])


def _maybe(flag, values):
    """No flag, "--flag=value", or "--flag value" (a value may start with "-")."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]),
                     values.map(lambda v: [flag, str(v)]))


_argvs = st.one_of(
    st.tuples(st.sampled_from(["ke", "mabuchi"]), _families.map(lambda f: [f"--family={f}"]),
              _maybe("--n", _ranges), _maybe("--p", _ranges)),
    st.tuples(st.just("mh"), _maybe("--n", _ranges), _maybe("--p", _ranges)),
    st.tuples(st.just("coupled"), _maybe("--k", _small_ranges), _maybe("--bisections", _small),
              _maybe("--start", _endpoints), _maybe("--end", _endpoints)),
    st.tuples(st.just("verify"), st.sampled_from(["closed-forms", "ke", "mh", "x"]).map(lambda s: [f"--suite={s}"]),
              _ints.map(lambda n: [f"--max-n={n}"])),
    st.tuples(st.just("dump-instance"), _families.map(lambda f: [f"--family={f}"]),
              _maybe("--n", _ints), _maybe("--p", _ints), _maybe("--divisor", _divisors)),
).map(lambda parts: [parts[0]] + [arg for part in parts[1:] for arg in part])


@settings(max_examples=300, deadline=None)
@given(argv=_argvs, fmt=st.sampled_from(["json", "csv", "markdown"]))
def test_main_fuzz_never_raises(tmp_path_factory, argv, fmt):
    out = tmp_path_factory.getbasetemp() / "fuzz-report"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--format", fmt, "--jobs", "1", "--out", str(out)])
    assert code in (0, 1, 2)
    report = out.read_text(encoding="utf-8") if out.exists() else ""
    if "contract-breach" in report + err.getvalue():
        # only the built-in coupled k = 2 row still ends in a contract breach
        # (ROADMAP item 5)
        assert argv[0] == "coupled"
        assert not any(arg.startswith(("--start", "--end")) for arg in argv)
        breaches = [line for line in err.getvalue().splitlines() if "contract-breach" in line]
        assert breaches == ["kstab: blpp k=2: error:contract-breach: "
                            "segment leaves the ample region at parameter 1"]


@settings(max_examples=200, deadline=None)
@given(argv=_argvs, fmt=st.sampled_from(["json", "csv", "markdown"]))
def test_spec_errors_come_only_from_parsing(argv, fmt):
    try:
        spec = parse_spec(argv + ["--format", fmt, "--jobs", "1"])
    except cli.SpecError:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.execute(spec)
    except cli.SpecError as exc:
        raise AssertionError(f"{argv} parsed, then failed as an invocation: {exc}") from exc
    except KstabError:
        pass  # dump-instance of a member that cannot be built exits 2
