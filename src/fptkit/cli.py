"""Command-line front end.

One subcommand per engine capability; every command takes --char and, when
a polynomial is involved, --vars plus the polynomial text (inline or via
--input-file, not both).  --json emits exactly one JSON document on stdout;
the default is a small aligned human report.  Error classes map to distinct
exit codes: parse errors 2, domain errors 3, cap/infeasibility 4, anything
unexpected 70, and 141 (128 + SIGPIPE, with nothing on stderr) when the
reader of stdout has closed it.  The parser is built once, at import, and
main hands the arguments after a subcommand's name to that subcommand's
parser alone; the top-level parser reads argv only when it names no
subcommand or leaves arguments over, so help and error text are argparse's,
except that an option the subcommand does not take is named with its value.
A command that needs a test ideal builds one TestIdealComputer, which
resolves an omitted --bound when it is first read; fpt and verify report
the bound they used, which only caps a search, whose answer is certified
exactly.  verify formats the checks of the walk's report
(JumpingNumberReport.checks).  jn and ft read the closed digit automaton
of their engine and tau evaluates at one parameter, so none of them takes
a bound; nu is asked of a bare root engine.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import constancy as constancy_mod
from . import testideal
from .basep import candidate_set, format_rational, parse_rational
from .errors import DomainError, EngineError, InfeasibleError, ParseError
from .froot import FrobeniusRootEngine
from .groebner import Ideal, maximal_ideal
from .parsing import parse_polynomial
from .poly import PolyRing, _head

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 70
EXIT_BROKEN_PIPE = 141


def _poly(args):
    ring = PolyRing(args.char, [v.strip() for v in args.vars.split(",") if v.strip()])
    if args.input_file is not None:
        with open(args.input_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.poly
    if not text:
        raise ParseError("no polynomial given", 0)
    return parse_polynomial(text, ring)


def _ideal(text, ring) -> Ideal:
    """The ideal of the ';'-separated generators in text; an error offset
    counts from the start of text, not of the generator."""
    gens = []
    for part in re.finditer(r"[^;]+", text):
        if part[0].strip():
            try:
                gens.append(parse_polynomial(part[0], ring))
            except ParseError as exc:
                raise ParseError(exc.message, part.start() + exc.position) from None
    if not gens:
        raise ParseError("no ideal generators given", 0)
    return Ideal(ring, gens)


def _exponents(text) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParseError(f"exponents must be comma-separated integers, got {text!r}", 0) from None


def _window(text) -> tuple[Fraction, Fraction]:
    if ":" not in text:
        raise DomainError(f"window must look like 'lo:hi', got {text!r}")
    lo, hi = text.split(":", 1)
    return parse_rational(lo), parse_rational(hi)


def _emit(args, payload: dict | list, human_lines) -> int:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)
    return EXIT_OK


# -- subcommand handlers ------------------------------------------------------


def _cmd_fpt(args) -> int:
    c = testideal.TestIdealComputer(_poly(args), args.bound)
    f, bound, value = c.f, c.bound, c.fpt()
    payload = _head(f) | {
        "bound": bound,
        "fpt": format_rational(value),
    }
    line = f"fpt({f}) = {format_rational(value)}   [p = {f.ring.prime}, bound = {bound}]"
    return _emit(args, payload, [line])


def _cmd_jn(args) -> int:
    f = _poly(args)
    report = testideal.jumping_numbers_closed(f)
    lines = [
        f"jumping numbers of {f} in [0,1)   [p = {f.ring.prime}]",
        f"fpt = {format_rational(report.fpt)}",
        f"transitions computed: {report.candidate_count}",
    ]
    width = max(len(format_rational(x)) for x in report.jumping_numbers)
    for lam, ideal in zip(report.jumping_numbers, report.test_ideals):
        lines.append(f"  {format_rational(lam):>{width}}  ->  {ideal}")
    return _emit(args, report.to_json(), lines)


def _cmd_tau(args) -> int:
    f = _poly(args)
    lam = parse_rational(args.lam)
    ideal = testideal.TestIdealComputer(f).ideal_at(lam)
    payload = _head(f) | {
        "lambda": format_rational(lam),
        "testIdeal": ideal.to_json(),
    }
    return _emit(args, payload, [f"tau(({f})^({format_rational(lam)})) = {ideal}"])


def _cmd_nu(args) -> int:
    f = _poly(args)
    b = maximal_ideal(f.ring) if args.ideal is None else _ideal(args.ideal, f.ring)
    value = FrobeniusRootEngine(f).nu(b, args.e)
    payload = _head(f) | {
        "e": args.e,
        "ideal": b.to_json(),
        "nu": value,
    }
    return _emit(args, payload, [f"nu(f, b, e={args.e}) = {value}   [b = {b}]"])


def _cmd_ft(args) -> int:
    f = _poly(args)
    b = _ideal(args.ideal, f.ring)
    cap = Fraction(f.ring.dimension) if args.cap is None else parse_rational(args.cap)
    value = testideal.TestIdealComputer(f).f_threshold(b, cap)
    payload = _head(f) | {
        "ideal": b.to_json(),
        "cap": format_rational(cap),
        "ft": format_rational(value),
    }
    return _emit(args, payload, [f"ft(f | b) = {format_rational(value)}   [b = {b}]"])


def _cmd_candidates(args) -> int:
    window = _window(args.window)
    values = [format_rational(x) for x in candidate_set(args.char, args.bound, window)]
    return _emit(args, values, [", ".join(values)])


def _cmd_profile(args) -> int:
    profile = constancy_mod.singularity_profile(_poly(args))
    payload = profile.to_json()  # N and M in decimal, of any length
    lines = [f"isolated singularity at the origin: {'yes' if profile.is_isolated else 'no'}"]
    if profile.is_isolated:
        lines += [
            f"ell = {profile.ell}",
            f"fpt-stability order N = {payload['boundN']}",
            f"test-ideal-stability order M = {payload['boundM']}",
        ]
    lines.append(f"jacobian = {profile.jacobian}")
    return _emit(args, payload, lines)


def _cmd_constancy(args) -> int:
    f = _poly(args)
    exponents = None if args.exponents is None else _exponents(args.exponents)
    report = constancy_mod.constancy_report(f, exponents, args.samples, args.seed)
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.to_csv())
    lines = [
        f"constancy report for {f}   [p = {f.ring.prime}, ell = {report.profile.ell}, "
        f"seed = {args.seed}]",
        "k | sample | fpt(f) | fpt(f+h) | gap | bound | flags",
    ]
    for r in report.records:
        flags = "".join(
            [
                "F" if r.fpt_equal else "-",
                "J" if r.jumping_numbers_equal else "-",
                "T" if r.test_ideals_equal_locally else "-",
                "S" if r.jacobian_stable else "-",
                "!" if r.theorem_violation else "",
            ]
        )
        lines.append(
            f"{r.exponent} | {r.sample_index} | {format_rational(r.fpt_base)} | "
            f"{format_rational(r.fpt_perturbed)} | {format_rational(r.fpt_gap)} | "
            f"{format_rational(r.gap_bound)} | {flags}"
        )
    return _emit(args, report.to_json(), lines)


def _cmd_verify(args) -> int:
    f = _poly(args)
    report = testideal.jumping_numbers_unit_interval(f, args.bound)
    checks = report.checks()
    passed = all(ok for _, ok in checks)
    payload = _head(f) | {
        "bound": report.bound,
        "checks": [{"name": name, "passed": ok} for name, ok in checks],
        "passed": passed,
    }
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    lines.append("all checks passed" if passed else "verification FAILED")
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and {name: parser} of its subcommands."""
    top = argparse.ArgumentParser(
        prog="fptkit",
        description="F-pure thresholds, F-jumping numbers, and test ideals over F_p",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, poly=True, bound=None):
        # bound: None (no --bound), "optional" or "required"
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--char", type=int, required=True, help="prime characteristic p")
        if poly:
            p.add_argument("--vars", default="x,y", help="comma-separated variable names")
            text = p.add_mutually_exclusive_group()
            text.add_argument("poly", nargs="?", help="polynomial text, e.g. 'x^4 + y^3 + x^2*y^2'")
            text.add_argument("--input-file", help="read the polynomial text from a file")
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        if bound:
            p.add_argument("--bound", type=int, required=bound == "required",
                           help="jumping-number count bound B: candidates have u + v <= B "
                           "(default, given f: default_bound(f))")
        return p

    command("fpt", _cmd_fpt, "F-pure threshold", bound="optional")
    command("jn", _cmd_jn, "jumping numbers and test ideals in [0,1)")

    p = command("tau", _cmd_tau, "test ideal at a parameter")
    p.add_argument("--lambda", dest="lam", required=True, help="rational parameter, e.g. 7/12")

    p = command("nu", _cmd_nu, "largest N with f^N outside b^[p^e]")
    p.add_argument("--e", type=int, required=True, help="Frobenius level e >= 0 of b^[p^e]")
    p.add_argument("--ideal", help="generators 'g1; g2; ...' (default: the maximal ideal)")

    p = command("ft", _cmd_ft, "F-threshold of f with respect to an ideal")
    p.add_argument("--ideal", required=True, help="generators 'g1; g2; ...' of the ideal b")
    p.add_argument("--cap", help="search cap (default: dim R)")

    p = command("candidates", _cmd_candidates, "candidate jumping numbers in a window",
                poly=False, bound="required")
    p.add_argument("--window", default="0:1", help="half-open window 'lo:hi'")

    command("profile", _cmd_profile, "singularity profile (ell and perturbation bounds)")

    p = command("constancy", _cmd_constancy, "perturbation-constancy report")
    p.add_argument("--exponents", help="comma-separated perturbation orders (default: ell+3)")
    p.add_argument("--samples", type=int, default=1, help="perturbations per order (default: 1)")
    p.add_argument("--seed", default="0", help="seed of the draws, echoed in the report")
    p.add_argument("--csv", help="also write the CSV summary to this path")

    command("verify", _cmd_verify, "run the invariant suite against a polynomial",
            bound="optional")

    return top, sub.choices


_PARSER, _COMMANDS = _build_parser()


def _parse_top(argv) -> argparse.Namespace:
    """argv as the top-level parser reads it, exiting 2 with argparse's usage
    on any argument it does not take.  argparse reads the token after an
    option that the subcommand does not take as the polynomial, and so
    names the polynomial as unrecognized; here each such option after the
    subcommand's name is named with the token after it, and only what is
    left over once both are dropped is named besides."""
    args, left = _PARSER.parse_known_args(argv)
    if not left:
        return args
    # the top-level parser takes no option with a value, so its first
    # positional is the subcommand's name
    sub = next((i for i, token in enumerate(argv) if not token.startswith("-")), len(argv))
    end = argv.index("--") if "--" in argv else len(argv)
    stray = set()
    for i in range(end):
        if argv[i].startswith("-") and argv[i] in left:
            stray.add(i)
            if sub < i < end - 1 and "=" not in argv[i] and not argv[i + 1].startswith("-"):
                stray.add(i + 1)
    _, left = _PARSER.parse_known_args([t for i, t in enumerate(argv) if i not in stray])
    _PARSER.error("unrecognized arguments: " + " ".join([argv[i] for i in sorted(stray)] + left))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        args, left = command.parse_known_args(argv[1:])
    # no subcommand named, or arguments left over: the top-level parser
    # reports it, with the usage and exit code it always gave
    if command is None or left:
        args = _parse_top(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone; devnull keeps the interpreter's final
        # flush from reporting it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (EngineError, OSError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
