import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fptkit import (
    PolyRing,
    TestIdealComputer,
    cli,
    constancy,
    default_bound,
    froot,
    parse_polynomial,
    testideal,
)
from fptkit.cli import main
from fptkit.froot import FrobeniusRootEngine

from conftest import random_poly, spy, src_env
from consistency_oracle import threshold_ideal_consistency


def run_cli(*argv, timeout=60):
    # a hanging command fails its test with TimeoutExpired instead of
    # stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "fptkit", *argv],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


class TestSubcommands:
    def test_jn_worked_example(self):
        proc = run_cli(
            "jn", "--char", "5", "--vars", "x,y", "x^4+y^3+x^2*y^2", "--bound", "6", "--json"
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["fpt"] == "7/12"
        assert doc["jumpingNumbers"] == ["0", "7/12", "4/5", "11/12"]
        assert doc["testIdeals"][1] == ["y", "x"]
        assert doc["prime"] == 5

    def test_fpt(self):
        proc = run_cli("fpt", "--char", "7", "--vars", "x,y", "x^2+y^3", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["fpt"] == "5/6"

    def test_tau(self):
        proc = run_cli(
            "tau", "--char", "5", "--vars", "x,y", "--lambda", "4/5",
            "x^4+y^3+x^2*y^2", "--json",
        )
        doc = json.loads(proc.stdout)
        assert doc["testIdeal"] == ["y", "x^2"]

    def test_tau_at_integer(self):
        # tau(f^2) = (f^2) is the evaluation formula at s = 0
        proc = run_cli(
            "tau", "--char", "5", "--vars", "x,y", "--lambda", "2",
            "x^4+y^3+x^2*y^2", "--json",
        )
        doc = json.loads(proc.stdout)
        assert doc["testIdeal"] == ["x^8 + 2x^6*y^2 + x^4*y^4 + 2x^4*y^3 + 2x^2*y^5 + y^6"]

    def test_tau_forms_no_jacobian(self, monkeypatch, capsys):
        # tau reads no bound, so it never resolves default_bound(f), whose
        # Jacobian basis and length would only have been printed
        calls = spy(monkeypatch, testideal, "isolated_jacobian")
        assert main(["tau", "--char", "5", "--vars", "x,y", "--lambda", "4/5",
                     "x^4+y^3+x^2*y^2", "--json"]) == 0
        assert calls == []
        assert "bound" not in json.loads(capsys.readouterr().out)

    def test_candidates(self):
        proc = run_cli("candidates", "--char", "2", "--bound", "2")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0, 1/3, 1/2, 2/3"

    def test_candidates_window(self):
        proc = run_cli(
            "candidates", "--char", "2", "--bound", "2", "--window", "1/3:1", "--json"
        )
        assert json.loads(proc.stdout) == ["1/3", "1/2", "2/3"]

    def test_nu_default_ideal(self):
        proc = run_cli("nu", "--char", "5", "--vars", "x,y", "--e", "1",
                       "x^4+y^3+x^2*y^2", "--json")
        assert json.loads(proc.stdout)["nu"] == 2

    def test_nu_beyond_the_degree_cap(self):
        proc = run_cli("nu", "--char", "5", "--vars", "x,y", "--e", "1",
                       "--ideal", "x^3; x - y^3", "y", "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["nu"] == 44

    def test_ft(self):
        proc = run_cli(
            "ft", "--char", "5", "--vars", "x,y", "--ideal", "x^2; y",
            "x^4+y^3+x^2*y^2", "--json",
        )
        assert json.loads(proc.stdout)["ft"] == "4/5"

    def test_profile(self):
        proc = run_cli("profile", "--char", "7", "--vars", "x,y", "x^2+y^3", "--json")
        doc = json.loads(proc.stdout)
        assert doc["ell"] == 2
        assert doc["boundN"] == "4802"
        assert doc["boundM"] == "100842"

    def test_constancy(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        proc = run_cli(
            "constancy", "--char", "7", "--vars", "x,y", "x^2+y^3",
            "--exponents", "5", "--samples", "1", "--seed", "5",
            "--csv", str(csv_path), "--json",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["seed"] == "5"
        assert len(doc["records"]) == 1
        assert csv_path.read_text().startswith("k,sample,fptF")

    def test_constancy_csv_bytes(self, tmp_path, capsys, cusp7):
        # the file holds to_csv() as it is: rows end in \r\n on every platform
        csv_path = tmp_path / "out.csv"
        argv = ["constancy", "--char", "7", "--vars", "x,y", "x^2+y^3", "--exponents", "5,6",
                "--seed", "5", "--csv", str(csv_path)]
        assert main(argv) == 0
        report = constancy.constancy_report(cusp7, [5, 6], 1, "5")
        assert csv_path.read_bytes() == report.to_csv().encode()

    def test_constancy_profiles_once(self, monkeypatch, capsys):
        profiled = []
        real = constancy.singularity_profile

        def counting_profile(f):
            profiled.append(f)
            return real(f)

        monkeypatch.setattr(constancy, "singularity_profile", counting_profile)
        assert main(["constancy", "--char", "7", "--vars", "x,y", "x^2+y^3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["records"][0]["k"] == 5
        assert len(profiled) == 1

    def test_verify_passes_on_worked_example(self):
        proc = run_cli(
            "verify", "--char", "5", "--vars", "x,y", "x^4+y^3+x^2*y^2", "--bound", "6"
        )
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout

    def test_input_file(self, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("x^2 + y^3\n")
        proc = run_cli("fpt", "--char", "7", "--vars", "x,y", "--input-file", str(path), "--json")
        assert json.loads(proc.stdout)["fpt"] == "5/6"


CHECKS = [
    "jumping numbers lie in the candidate set",
    "closed under lam -> frac(p*lam)",
    "test ideals strictly descend",
    "jacobian contained in every test ideal on [0,1)",
    "nu sandwich brackets the fpt (e = 1..3)",
    "interval-narrowed fpt matches the candidate walk",
    "left limits differ exactly at the jumps",
    "f lies in the bracket power of its own root",
]


class TestNonIsolatedSingularities:
    """jn, ft and verify at p=5 with the default bound (10 and 15), where an
    enumeration of every candidate would never finish.  The x^2*y answers
    are the monomial closed form tau((x^a*y^b)^lam) = (x^[a*lam] * y^[b*lam])
    of Hara and Yoshida."""

    @pytest.mark.parametrize(
        "poly, jumps, ideals, fpt",
        [
            ("x^2*y", ["0", "1/2"], [["1"], ["x"]], "1/2"),
            (
                "x^5 + y^4",
                ["0", "2/5", "3/5", "4/5"],
                [["1"], ["y", "x"], ["y^2", "x*y", "x^2"], ["y^3", "x*y^2", "x^2*y", "x^3"]],
                "2/5",
            ),
        ],
    )
    def test_jn(self, poly, jumps, ideals, fpt):
        proc = run_cli("jn", "--char", "5", "--vars", "x,y", poly, "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert (doc["jumpingNumbers"], doc["testIdeals"], doc["fpt"]) == (jumps, ideals, fpt)

    @pytest.mark.parametrize(
        "poly, ideal, ft", [("x^2*y", "x; y", "1/2"), ("x^5 + y^4", "x^2; y^2", "4/5")]
    )
    def test_ft(self, poly, ideal, ft):
        proc = run_cli("ft", "--char", "5", "--vars", "x,y", "--ideal", ideal, poly, "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ft"] == ft

    @pytest.mark.parametrize(
        "poly, names",
        [
            ("x^2*y", [c for c in CHECKS if not c.startswith("jacobian")]),
            ("x^5 + y^4", CHECKS),
        ],
    )
    def test_verify(self, poly, names):
        proc = run_cli("verify", "--char", "5", "--vars", "x,y", poly, "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["passed"]
        assert doc["checks"] == [{"name": n, "passed": True} for n in names]


class TestExitCodes:
    def test_parse_error(self):
        proc = run_cli("fpt", "--char", "5", "--vars", "x,y", "x^")
        assert proc.returncode == 2
        assert "offset" in proc.stderr

    def test_ideal_error_offset_counts_from_the_whole_argument(self, capsys):
        # "y^" is the second generator of "x; y^": its missing exponent is at
        # index 5 of the argument (index 3 of " y^")
        assert main(["ft", "--char", "5", "--ideal", "x; y^", "x^2+y^3"]) == 2
        assert capsys.readouterr().err == "parse error: expected a number (offset 5)\n"

    @pytest.mark.parametrize("command, extra", [("nu", ("--e", "1")), ("ft", ())])
    @pytest.mark.parametrize("ideal", ["", " ", ";"])
    def test_empty_ideal(self, capsys, command, extra, ideal):
        # an empty --ideal is an error, not the maximal ideal nu defaults to
        assert main([command, "--char", "5", *extra, "--ideal", ideal, "x^2+y^3"]) == 2
        assert capsys.readouterr().err == "parse error: no ideal generators given (offset 0)\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("constancy", "--exponents", ""), "at least one perturbation exponent"),
            (("ft", "--ideal", "x; y", "--cap", ""), "invalid rational ''"),
            (("fpt", "--input-file", ""), "No such file or directory: ''"),
            (("constancy", "--csv", ""), "No such file or directory: ''"),
        ],
        ids=["constancy-exponents", "ft-cap", "input-file", "constancy-csv"],
    )
    def test_empty_option_value(self, capsys, argv, message):
        # an empty value is an error, not the option's default
        command, *options = argv
        assert main([command, "--char", "7", *options, "x^2+y^3"]) == 3
        assert message in capsys.readouterr().err

    def test_inverted_candidate_window(self, capsys):
        assert main(["candidates", "--char", "2", "--bound", "2", "--window", "1:0"]) == 3
        assert "inverted" in capsys.readouterr().err
        assert main(["candidates", "--char", "2", "--bound", "2", "--window", "1:1"]) == 0
        assert capsys.readouterr().out == "\n"

    def test_malformed_candidate_window(self, capsys):
        assert main(["candidates", "--char", "5", "--bound", "2", "--window", "1/2"]) == 3
        assert capsys.readouterr().err == (
            "domain error: window must look like 'lo:hi', got '1/2'\n"
        )

    @pytest.mark.parametrize(
        "argv", [("fpt",), ("jn", "--input-file", os.devnull)], ids=["no-text", "empty-file"]
    )
    def test_no_polynomial(self, capsys, argv):
        command, *options = argv
        assert main([command, "--char", "5", "--vars", "x,y", *options]) == 2
        assert capsys.readouterr().err == "parse error: no polynomial given (offset 0)\n"

    def test_candidate_count_cap(self, capsys):
        # about 4e13 numerators: refused before one is formed
        assert main(["candidates", "--char", "2", "--bound", "40"]) == 4
        assert "more than the limit" in capsys.readouterr().err
        # 2^50000 numerators in the first period alone: refused without
        # forming or printing the total
        assert main(["candidates", "--char", "2", "--bound", "50000"]) == 4
        assert "more than the limit" in capsys.readouterr().err

    def test_empty_candidate_window_at_a_large_bound(self):
        # the window [0, 0) holds nothing, so it must answer without forming
        # the 10^5 period denominators of up to 10^5 bits each
        proc = run_cli(
            "candidates", "--char", "2", "--bound", "100000", "--window", "0:0", "--json",
            timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    @pytest.mark.parametrize("cap", ["1234567", "10000000"])
    def test_large_cap_with_a_small_answer(self, cap):
        # the search doubles up from 1, so it forms neither f^cap nor a
        # power near cap/2
        proc = run_cli(
            "ft", "--char", "5", "--vars", "x,y", "--ideal", "x;y", "--cap", cap,
            "x^2+y^3+x*y^2", timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ft(f | b) = 4/5   [b = (y, x)]\n"

    def test_large_cap_outside_the_radical(self):
        # x^2+y^3 is not in sqrt((x)): refused before any power of f is formed
        proc = run_cli(
            "ft", "--char", "5", "--vars", "x,y", "--ideal", "x", "--cap", "1234567",
            "x^2+y^3", timeout=10,
        )
        assert proc.returncode == 4
        assert proc.stderr == (
            "infeasible: no parameter at or below the cap 1234567 drops the test ideal into b\n"
        )

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    def test_profile_past_the_int_string_limit(self, json_flag):
        # N = 2*5^7200 and M = 2*3601*5^7201 have over 5,000 digits, past
        # the 4,300 that str() of an int may write by default
        proc = run_cli(
            "profile", "--char", "5", "--vars", "x,y", "x^60+y^61", *json_flag, timeout=10
        )
        assert proc.returncode == 0, proc.stderr
        if json_flag:
            doc = json.loads(proc.stdout)
            N, M = doc["boundN"], doc["boundM"]
        else:
            lines = proc.stdout.splitlines()
            assert lines[1] == "ell = 3600"
            N, M = (line.split(" = ")[1] for line in lines[2:4])

        def value(digits):  # int() of 1,000 digits at a time stays under the limit
            chunks = range(0, len(digits), 1000)
            return sum(int(digits[-i - 1000 : len(digits) - i]) * 10**i for i in chunks)

        assert (value(N), value(M)) == (2 * 5**7200, 2 * 3601 * 5**7201)

    def test_domain_error(self):
        proc = run_cli("fpt", "--char", "5", "--vars", "x,y", "x + 1")
        assert proc.returncode == 3

    def test_composite_characteristic(self):
        proc = run_cli("fpt", "--char", "6", "--vars", "x,y", "x")
        assert proc.returncode == 3

    def test_malformed_exponents(self):
        proc = run_cli(
            "constancy", "--char", "5", "--vars", "x,y", "x^2+y^3", "--exponents", "6,a"
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("parse error:")

    def test_constancy_has_no_term_count(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["constancy", "--char", "7", "--vars", "x,y", "x^2+y^3", "--term-count", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --term-count 3" in capsys.readouterr().err

    def test_bound_too_small(self):
        # the quartic has 3 jumps in (0, 1); bound 1 cannot isolate them
        proc = run_cli("jn", "--char", "5", "--vars", "x,y", "x^4+y^3+x^2*y^2", "--bound", "1")
        assert proc.returncode == 3
        assert "too small" in proc.stderr

    def test_bound_too_small_for_a_walk_that_answered_wrongly(self):
        # B = 1 once gave the jumps 0, 1/2 here; the default bound gives 0, 1/2, 2/3
        proc = run_cli("jn", "--char", "3", "--vars", "x,y", "--bound", "1", "x^2*y^2 + x*y^3")
        assert proc.returncode == 3
        assert "too small" in proc.stderr

    def test_bound_too_small_for_a_jump_just_below_one(self):
        # 5/6 lies in ((p^B - 1)/p^B, 1) = (2/3, 1) and is no candidate for
        # B = 1; a walk whose left limit at 1 is read at s = B misses it
        proc = run_cli("jn", "--char", "3", "--vars", "x,y", "--bound", "1", "x^2*y^2 + x^3")
        assert proc.returncode == 3
        assert "the jump 5/6 is no candidate for bound 1" in proc.stderr
        proc = run_cli("jn", "--char", "3", "--vars", "x,y", "x^2*y^2 + x^3", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["jumpingNumbers"] == ["0", "1/2", "5/6"]

    def test_verify_with_a_bound_too_small_for_a_jump_just_below_one(self):
        # the walk's last search tries the guess 1 with the left limit at 1,
        # which is tau(f^(5/6)) whatever the bound, so the guess fails and the
        # narrowing at B = 1 finds no single candidate
        proc = run_cli("verify", "--char", "3", "--vars", "x,y", "--bound", "1", "x^2*y^2 + x^3")
        assert proc.returncode == 3
        assert "too small" in proc.stderr

    def test_closed_stdout(self):
        # stdout is a pipe whose read end is closed before the child starts,
        # so every write fails: exit 128 + SIGPIPE, not a domain error
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fptkit", "jn", "--char", "3", "--vars", "x,y",
                 "x^2*y^2 + x^3"],
                env=src_env(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_unwritable_csv(self, capsys):
        # an OSError other than a closed stdout stays a domain error
        argv = ["constancy", "--char", "7", "--vars", "x,y", "--csv", "/nonexistent/out.csv",
                "x^2+y^3"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("domain error: [Errno 2] ")

    def test_nu_outside_radical(self):
        proc = run_cli("nu", "--char", "5", "--vars", "x,y", "--e", "1", "--ideal", "y", "x")
        assert proc.returncode == 3
        assert "radical" in proc.stderr

    def test_infeasible(self):
        proc = run_cli(
            "ft", "--char", "5", "--vars", "x,y", "--ideal", "y", "--cap", "2", "x"
        )
        assert proc.returncode == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ("fpt", "--char", "2", "--vars", "x,y", "--bound", "100000", "x^2+y^3"),
            ("nu", "--char", "5", "--vars", "x,y", "--e", "100000", "x"),
        ],
        ids=["fpt", "nu"],
    )
    def test_search_past_the_level_budget(self, argv):
        # 200,001 and 100,000 levels: refused before any level is run
        proc = run_cli(*argv, timeout=10)
        assert proc.returncode == 4
        assert "passes the limit of 1000 levels" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [("tau", "--char", "2", "--vars", "x,y", "--lambda", "1/3", "x^2+y^3", "--json")],
        ids=["tau"],
    )
    def test_evaluation_at_a_bound_past_the_digit_budget(self, argv):
        # s = u + v*B at --bound 100000 was 200,000 digit steps; the
        # evaluation reads its depth off lam alone, and the fpt is 1/2, so
        # tau(f^(1/3)) = (1).  tau takes no --bound at all now
        proc = run_cli(*argv, timeout=10)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["testIdeal"] == ["1"]
        assert run_cli(*argv[:1], "--bound", "3", *argv[1:], timeout=10).returncode == 2

    def test_success_is_zero(self):
        assert run_cli("candidates", "--char", "3", "--bound", "1").returncode == 0


class TestDeterminism:
    def test_byte_identical_json(self):
        # elapsedMs is wall-clock and exempt; everything else must be stable
        args = ("jn", "--char", "7", "--vars", "x,y", "x^2+y^3", "--json")
        docs = []
        for _ in range(2):
            proc = run_cli(*args)
            doc = json.loads(proc.stdout)
            doc.pop("elapsedMs")
            docs.append(json.dumps(doc))
        assert docs[0] == docs[1]

    def test_constancy_seeded_repeatable(self):
        args = (
            "constancy", "--char", "7", "--vars", "x,y", "x^2+y^3",
            "--exponents", "5", "--samples", "2", "--seed", "9", "--json",
        )
        a = run_cli(*args).stdout
        b = run_cli(*args).stdout
        assert a == b


class TestRoundTrip:
    def test_print_parse_identity(self):
        rng = random.Random(17)
        for p in (2, 3, 5, 7):
            ring = PolyRing(p, ["x", "y"])
            for _ in range(25):
                f = random_poly(rng, ring, 7, 6)
                assert parse_polynomial(str(f), ring) == f

    def test_in_process_entry_point(self, capsys):
        assert main(["candidates", "--char", "2", "--bound", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0, 1/3, 1/2, 2/3"


QUARTIC = ("--char", "5", "--vars", "x,y", "x^4+y^3+x^2*y^2")
CUSP = ("--char", "7", "--vars", "x,y", "x^2+y^3")


class TestHumanOutput:
    """The report each command prints without --json."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("fpt", *CUSP), "fpt(y^3 + x^2) = 5/6   [p = 7, bound = 2]\n"),
            (
                ("jn", *QUARTIC, "--bound", "6"),
                "jumping numbers of x^4 + x^2*y^2 + y^3 in [0,1)   [p = 5, bound = 6]\n"
                "fpt = 7/12\n"
                "transitions computed: 17\n"
                "      0  ->  (1)\n"
                "   7/12  ->  (y, x)\n"
                "    4/5  ->  (y, x^2)\n"
                "  11/12  ->  (y^2, x*y, x^2)\n",
            ),
            (
                ("tau", *QUARTIC, "--lambda", "4/5"),
                "tau((x^4 + x^2*y^2 + y^3)^(4/5)) = (y, x^2)\n",
            ),
            (("nu", *QUARTIC, "--e", "1"), "nu(f, b, e=1) = 2   [b = (y, x)]\n"),
            (("ft", *QUARTIC, "--ideal", "x^2; y"), "ft(f | b) = 4/5   [b = (y, x^2)]\n"),
            (
                ("profile", *CUSP),
                "isolated singularity at the origin: yes\n"
                "ell = 2\n"
                "fpt-stability order N = 4802\n"
                "test-ideal-stability order M = 100842\n"
                "jacobian = (x, y^2)\n",
            ),
            (
                ("profile", "--char", "5", "--vars", "x,y", "x^2*y"),
                "isolated singularity at the origin: no\njacobian = (x*y, x^2)\n",
            ),
            (
                ("constancy", *CUSP, "--exponents", "5", "--seed", "5"),
                "constancy report for y^3 + x^2   [p = 7, ell = 2, seed = 5]\n"
                "k | sample | fpt(f) | fpt(f+h) | gap | bound | flags\n"
                "5 | 0 | 5/6 | 5/6 | 0 | 2/5 | FJTS\n",
            ),
            (
                ("verify", *QUARTIC, "--bound", "6"),
                "".join(f"PASS  {name}\n" for name in CHECKS) + "all checks passed\n",
            ),
        ],
        ids=[
            "fpt", "jn", "tau", "nu", "ft", "profile-isolated", "profile-non-isolated",
            "constancy", "verify",
        ],
    )
    def test_report(self, argv, expected, capsys):
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == expected


class TestBoundKey:
    """The "bound" key is --bound when it is given and default_bound(f) when not."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("fpt", *CUSP),
            ("jn", *CUSP),
            ("ft", *CUSP, "--ideal", "x; y"),
            ("verify", *CUSP),
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("given", [None, 3])
    def test_bound(self, argv, given, capsys):
        extra = [] if given is None else ["--bound", str(given)]
        assert main([*argv, *extra, "--json"]) == 0
        f = parse_polynomial("x^2+y^3", PolyRing(7, ["x", "y"]))
        expected = default_bound(f) if given is None else given
        assert json.loads(capsys.readouterr().out)["bound"] == expected


def test_main_reuses_one_parser(monkeypatch, capsys):
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    for _ in range(2):
        assert main(["candidates", "--char", "2", "--bound", "2"]) == 0
    assert capsys.readouterr().out == "0, 1/3, 1/2, 2/3\n" * 2


def test_a_valid_command_reads_only_its_own_parser(monkeypatch, capsys):
    # main hands argv after the name to the subcommand's parser; the
    # top-level parser is never asked
    top = spy(monkeypatch, cli._PARSER, "parse_known_args")
    assert main(["candidates", "--char", "2", "--bound", "2"]) == 0
    assert main(["fpt", *CUSP, "--json"]) == 0
    assert main(["nu", *QUARTIC, "--e", "1", "--ideal", "x; y"]) == 0
    assert top == []


ARGV_CASES = [
    ([], 2),
    (["-h"], 0),
    (["fpt", "-h"], 0),
    (["bogus"], 2),
    (["fpt", "--char", "7", "--bogus", "x^2+y^3"], 2),
    (["fpt", "--char", "seven", "x^2+y^3"], 2),
    (["fpt", "--char", "7", "x^2+y^3", "extra"], 2),
    (["fpt", "x^2+y^3"], 2),
    (["--json", "fpt", "--char", "7", "x^2+y^3"], 2),
    (["fpt", "--char", "7", "--", "x^2+y^3", "y"], 2),
    (["tau", "--char", "5", "x^4+y^3", "--lambda", "-1/2"], 2),
    (["fpt", "--char", "4", "x^2+y^3"], 3),
    (["fpt", "--ch", "7", "--", "x^2+y^3"], 0),
]


def answered(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, code", ARGV_CASES, ids=[" ".join(a) or "-" for a, _ in ARGV_CASES])
def test_help_and_errors_read_as_the_top_level_parser_gives_them(monkeypatch, capsys, argv, code):
    """Help, usage errors and answers are the same whether main parses argv
    with the subcommand's parser or, as with no subcommand known, with the
    top-level parser alone."""
    monkeypatch.setenv("COLUMNS", "80")
    direct = answered(argv, capsys)
    monkeypatch.setattr(cli, "_COMMANDS", {})
    assert direct == answered(argv, capsys)
    assert direct[0] == code


def quartic_consistency():
    ring = PolyRing(5, ["x", "y"])
    f = parse_polynomial("x^4+y^3+x^2*y^2", ring)
    assert threshold_ideal_consistency(f, f + ring.monomial((9, 0)), Fraction(7, 12), 6)


@pytest.mark.parametrize(
    "query, engines, computers",
    [
        (("fpt", *QUARTIC), 1, 1),
        (("jn", *QUARTIC), 1, 1),
        (("tau", *QUARTIC, "--lambda", "4/5"), 1, 1),
        (("nu", *QUARTIC, "--e", "2"), 1, 0),
        (("ft", *QUARTIC, "--ideal", "x^2; y"), 1, 1),
        (("verify", *QUARTIC), 1, 1),
        (quartic_consistency, 2, 2),
    ],
    ids=["fpt", "jn", "tau", "nu", "ft", "verify", "threshold_ideal_consistency"],
)
def test_one_context_per_query(monkeypatch, capsys, query, engines, computers):
    """A query builds one TestIdealComputer per polynomial and asks it every
    question; only nu, which needs no bound, builds a bare engine.  verify asks
    every check, nu for e = 1, 2, 3 included, of the computer its walk built."""
    built = {FrobeniusRootEngine: 0, TestIdealComputer: 0}
    for cls in built:

        def counting_init(self, *args, cls=cls, real=cls.__init__):
            built[cls] += 1
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    if callable(query):
        query()
    else:
        assert main([*query, "--json"]) == 0
    assert (built[FrobeniusRootEngine], built[TestIdealComputer]) == (engines, computers)


@pytest.mark.parametrize(
    "module, name, count",
    [
        pytest.param(testideal, "artinian_length", 1, id="fptkit.testideal-artinian_length"),
        pytest.param(froot, "radical_member", 3, id="fptkit.froot-radical_member"),
    ],
)
def test_verify_asks_fixed_questions_once(monkeypatch, capsys, module, name, count):
    """verify without --bound reuses the Jacobian length its computer resolved
    the bound from for the Jacobian check.  Each of the three nu calls asks
    for f in sqrt(m) itself: for a monomial b that is a support scan, with
    no Groebner basis, so nothing is kept."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    assert main(["verify", *QUARTIC, "--json"]) == 0
    assert len(calls) == count


EVERY_COMMAND = [
    ("fpt", *QUARTIC),
    ("jn", *QUARTIC),
    ("tau", *QUARTIC, "--lambda", "4/5"),
    ("nu", *QUARTIC, "--e", "2"),
    ("ft", *QUARTIC, "--ideal", "x^2; y"),
    ("candidates", "--char", "5", "--bound", "3"),
    ("profile", *QUARTIC),
    ("constancy", "--char", "7", "--vars", "x,y", "x^2+y^3"),
    ("verify", *QUARTIC),
]


def module_container_sizes() -> dict:
    """The size of every dict, list and set bound at module level in fptkit."""
    return {
        f"{name}.{attr}": len(value)
        for name, module in list(sys.modules.items())
        if name == "fptkit" or name.startswith("fptkit.")
        for attr, value in vars(module).items()
        if isinstance(value, (dict, list, set))
    }


def subparsers() -> dict:
    """{name: parser} of every subcommand."""
    return next(
        a.choices for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)
    )


def test_no_module_level_cache(capsys):
    """Any memo a query needs lives on its ring, engine or computer: running
    every command leaves each module-level container of fptkit as it was."""
    assert sorted(argv[0] for argv in EVERY_COMMAND) == sorted(subparsers())
    before = module_container_sizes()
    for argv in EVERY_COMMAND:
        assert main([*argv, "--json"]) == 0, argv
    assert module_container_sizes() == before


def test_every_option_has_help():
    """Every subcommand's --help describes every option, and --bound means
    the same wherever it is taken."""
    actions = [(name, a) for name, p in subparsers().items() for a in p._actions]
    bare = [f"{name} {(a.option_strings or [a.dest])[0]}" for name, a in actions if not a.help]
    assert bare == []
    bound = [(name, a.help) for name, a in actions if "--bound" in a.option_strings]
    assert sorted(name for name, _ in bound) == ["candidates", "fpt", "ft", "jn", "verify"]
    assert len({text for _, text in bound}) == 1
