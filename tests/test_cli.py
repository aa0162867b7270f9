import argparse
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fptkit import PolyRing, TestIdealComputer, cli, constancy, default_bound, parse_polynomial
from fptkit.cli import main
from fptkit.froot import FrobeniusRootEngine

from conftest import random_poly, src_env


def run_cli(*argv):
    # a hanging command fails its test with TimeoutExpired instead of
    # stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "fptkit", *argv],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
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
        assert doc["stabilizationExponent"] == 7

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

    def test_bound_too_small(self):
        # the quartic has 3 jumps in (0, 1); bound 1 cannot isolate them
        proc = run_cli("jn", "--char", "5", "--vars", "x,y", "x^4+y^3+x^2*y^2", "--bound", "1")
        assert proc.returncode == 3
        assert "too small" in proc.stderr

    def test_nu_outside_radical(self):
        proc = run_cli("nu", "--char", "5", "--vars", "x,y", "--e", "1", "--ideal", "y", "x")
        assert proc.returncode == 3
        assert "radical" in proc.stderr

    def test_infeasible(self):
        proc = run_cli(
            "ft", "--char", "5", "--vars", "x,y", "--ideal", "y", "--cap", "2", "x"
        )
        assert proc.returncode == 4

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
                "ideal evaluations: 151\n"
                "      0  ->  (1)\n"
                "   7/12  ->  (y, x)\n"
                "    4/5  ->  (y, x^2)\n"
                "  11/12  ->  (y^2, x*y, x^2)\n",
            ),
            (
                ("tau", *QUARTIC, "--lambda", "4/5"),
                "tau((x^4 + x^2*y^2 + y^3)^(4/5)) = (y, x^2)   [s = 7]\n",
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
            ("tau", *CUSP, "--lambda", "1/2"),
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


def quartic_consistency():
    ring = PolyRing(5, ["x", "y"])
    f = parse_polynomial("x^4+y^3+x^2*y^2", ring)
    assert constancy.threshold_ideal_consistency(f, f + ring.monomial((9, 0)), Fraction(7, 12), 6)


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


def test_no_module_level_cache(capsys):
    """Any memo a query needs lives on its ring, engine or computer: running
    every command leaves each module-level container of fptkit as it was."""
    commands = next(
        a.choices for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(argv[0] for argv in EVERY_COMMAND) == sorted(commands)
    before = module_container_sizes()
    for argv in EVERY_COMMAND:
        assert main([*argv, "--json"]) == 0, argv
    assert module_container_sizes() == before
