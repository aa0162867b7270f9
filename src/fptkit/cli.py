"""Command-line front end.

One subcommand per engine capability; every command takes --char and, when
a polynomial is involved, --vars plus the polynomial text (inline or via
--input-file).  --json emits exactly one JSON document on stdout; the
default is a small aligned human report.  Error classes map to distinct
exit codes: parse errors 2, domain errors 3, cap/infeasibility 4, anything
unexpected 70.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import constancy as constancy_mod
from . import testideal
from .basep import candidate_set, canonical_pair, format_rational, parse_rational
from .errors import DomainError, EngineError, InfeasibleError, ParseError
from .froot import FrobeniusRootEngine
from .groebner import Ideal, bracket_power, jacobian, maximal_ideal, normal_form
from .parsing import parse_polynomial
from .poly import PolyRing

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 70


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fptkit",
        description="F-pure thresholds, F-jumping numbers, and test ideals over F_p",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, poly=True):
        p.add_argument("--char", type=int, required=True, help="prime characteristic p")
        if poly:
            p.add_argument("--vars", default="x,y", help="comma-separated variable names")
            p.add_argument("poly", nargs="?", help="polynomial text, e.g. 'x^4 + y^3 + x^2*y^2'")
            p.add_argument("--input-file", help="read the polynomial text from a file")
        p.add_argument("--json", action="store_true", help="emit one JSON document")

    p = sub.add_parser("fpt", help="F-pure threshold")
    common(p)
    p.add_argument("--bound", type=int, help="override the jumping-number count bound")

    p = sub.add_parser("jn", help="jumping numbers and test ideals in [0,1)")
    common(p)
    p.add_argument("--bound", type=int)

    p = sub.add_parser("tau", help="test ideal at a parameter")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True, help="rational parameter, e.g. 7/12")
    p.add_argument("--bound", type=int)

    p = sub.add_parser("nu", help="largest N with f^N outside b^[p^e]")
    common(p)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--ideal", help="generators 'g1; g2; ...' (default: the maximal ideal)")

    p = sub.add_parser("ft", help="F-threshold of f with respect to an ideal")
    common(p)
    p.add_argument("--ideal", required=True)
    p.add_argument("--bound", type=int)
    p.add_argument("--cap", help="search cap (default: dim R)")

    p = sub.add_parser("candidates", help="candidate jumping numbers in a window")
    common(p, poly=False)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--window", default="0:1", help="half-open window 'lo:hi'")

    p = sub.add_parser("profile", help="singularity profile (ell and perturbation bounds)")
    common(p)

    p = sub.add_parser("constancy", help="perturbation-constancy report")
    common(p)
    p.add_argument("--exponents", help="comma-separated perturbation orders (default: ell+3)")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", default="0")
    p.add_argument("--term-count", type=int, default=3)
    p.add_argument("--csv", help="also write the CSV summary to this path")

    p = sub.add_parser("verify", help="run the invariant suite against a polynomial")
    common(p)
    p.add_argument("--bound", type=int)

    return top


def _ring(args) -> PolyRing:
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    return PolyRing(args.char, names)


def _poly(args, ring):
    if getattr(args, "input_file", None):
        with open(args.input_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.poly
    if not text:
        raise ParseError("no polynomial given", 0)
    return parse_polynomial(text, ring)


def _ideal(text, ring) -> Ideal:
    gens = [parse_polynomial(part, ring) for part in text.split(";") if part.strip()]
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


def _emit(args, payload: dict | list, human_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


# -- subcommand handlers ------------------------------------------------------


def _cmd_fpt(args) -> int:
    ring = _ring(args)
    f = _poly(args, ring)
    bound = args.bound if args.bound is not None else testideal.default_bound(f)
    value = testideal.fpt(f, bound)
    payload = {
        "prime": ring.prime,
        "poly": str(f),
        "bound": bound,
        "fpt": format_rational(value),
    }
    _emit(args, payload, [f"fpt({f}) = {format_rational(value)}   [p = {ring.prime}, bound = {bound}]"])
    return EXIT_OK


def _cmd_jn(args) -> int:
    ring = _ring(args)
    f = _poly(args, ring)
    bound = args.bound if args.bound is not None else testideal.default_bound(f)
    report = testideal.jumping_numbers_unit_interval(f, bound)
    lines = [
        f"jumping numbers of {f} in [0,1)   [p = {ring.prime}, bound = {bound}]",
        f"fpt = {format_rational(report.fpt)}",
        f"ideal evaluations: {report.candidate_count}",
    ]
    width = max(len(format_rational(x)) for x in report.jumping_numbers)
    for lam, ideal in zip(report.jumping_numbers, report.test_ideals):
        lines.append(f"  {format_rational(lam):>{width}}  ->  {ideal}")
    _emit(args, report.to_json(), lines)
    return EXIT_OK


def _cmd_tau(args) -> int:
    ring = _ring(args)
    f = _poly(args, ring)
    lam = parse_rational(args.lam)
    bound = args.bound if args.bound is not None else testideal.default_bound(f)
    result = testideal.test_ideal(f, lam, bound)
    payload = {
        "prime": ring.prime,
        "poly": str(f),
        "bound": bound,
        "lambda": format_rational(lam),
        "stabilizationExponent": result.stabilization_exponent,
        "testIdeal": result.ideal.to_json(),
    }
    _emit(
        args,
        payload,
        [
            f"tau(({f})^({format_rational(lam)})) = {result.ideal}   "
            f"[s = {result.stabilization_exponent}]"
        ],
    )
    return EXIT_OK


def _cmd_nu(args) -> int:
    ring = _ring(args)
    f = _poly(args, ring)
    b = _ideal(args.ideal, ring) if args.ideal else maximal_ideal(ring)
    value = testideal.nu(f, b, args.e)
    payload = {
        "prime": ring.prime,
        "poly": str(f),
        "e": args.e,
        "ideal": b.to_json(),
        "nu": value,
    }
    _emit(args, payload, [f"nu(f, b, e={args.e}) = {value}   [b = {b}]"])
    return EXIT_OK


def _cmd_ft(args) -> int:
    ring = _ring(args)
    f = _poly(args, ring)
    b = _ideal(args.ideal, ring)
    bound = args.bound if args.bound is not None else testideal.default_bound(f)
    cap = parse_rational(args.cap) if args.cap else Fraction(ring.dimension)
    value = testideal.f_threshold(f, b, bound, cap)
    payload = {
        "prime": ring.prime,
        "poly": str(f),
        "ideal": b.to_json(),
        "bound": bound,
        "cap": format_rational(cap),
        "ft": format_rational(value),
    }
    _emit(args, payload, [f"ft(f | b) = {format_rational(value)}   [b = {b}]"])
    return EXIT_OK


def _cmd_candidates(args) -> int:
    window = _window(args.window)
    cs = candidate_set(args.char, args.bound, window)
    _emit(args, cs.to_json(), [", ".join(cs.to_json())])
    return EXIT_OK


def _cmd_profile(args) -> int:
    ring = _ring(args)
    f = _poly(args, ring)
    profile = constancy_mod.singularity_profile(f)
    if profile.is_isolated:
        lines = [
            f"isolated singularity at the origin: yes",
            f"ell = {profile.ell}",
            f"fpt-stability order N = {profile.bound_fpt}",
            f"test-ideal-stability order M = {profile.bound_test_ideals}",
            f"jacobian = {profile.jacobian}",
        ]
    else:
        lines = [
            "isolated singularity at the origin: no",
            f"jacobian = {profile.jacobian}",
        ]
    _emit(args, profile.to_json(), lines)
    return EXIT_OK


def _cmd_constancy(args) -> int:
    ring = _ring(args)
    f = _poly(args, ring)
    exponents = _exponents(args.exponents) if args.exponents else None
    report = constancy_mod.constancy_report(
        f, exponents, args.samples, args.seed, term_count=args.term_count
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    lines = [
        f"constancy report for {f}   [p = {ring.prime}, ell = {report.bound}, seed = {args.seed}]",
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
    _emit(args, report.to_json(), lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ring = _ring(args)
    f = _poly(args, ring)
    bound = args.bound if args.bound is not None else testideal.default_bound(f)
    checks = _run_verification(f, bound)
    passed = all(ok for _, ok in checks)
    payload = {
        "prime": ring.prime,
        "poly": str(f),
        "bound": bound,
        "checks": [{"name": name, "passed": ok} for name, ok in checks],
        "passed": passed,
    }
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    lines.append("all checks passed" if passed else "verification FAILED")
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _run_verification(f, bound) -> list[tuple[str, bool]]:
    p = f.ring.prime
    report = testideal.jumping_numbers_unit_interval(f, bound)
    checks = []

    positive = [x for x in report.jumping_numbers if x > 0]
    shape_ok = True
    for lam in positive:
        pair = canonical_pair(lam, p)
        if pair.u + pair.v > bound:
            shape_ok = False
    checks.append(("jumping numbers lie in the candidate set", shape_ok))

    jn_set = set(report.jumping_numbers)
    closure_ok = all((p * lam) - int(p * lam) in jn_set for lam in positive)
    checks.append(("closed under lam -> frac(p*lam)", closure_ok))

    descend_ok = all(
        a.contains_ideal(b) and a != b
        for a, b in zip(report.test_ideals, report.test_ideals[1:])
    )
    checks.append(("test ideals strictly descend", descend_ok))

    ell = testideal.length_bound(f)
    if ell is not None:
        jac = jacobian(f)
        jac_ok = all(ideal.contains_ideal(jac) for ideal in report.test_ideals)
        checks.append(("jacobian contained in every test ideal on [0,1)", jac_ok))

    m = maximal_ideal(f.ring)
    sandwich_ok = True
    for e in (1, 2, 3):
        v = testideal.nu(f, m, e)
        q = p**e
        if not (Fraction(v, q) < report.fpt <= Fraction(v + 1, q)):
            sandwich_ok = False
    checks.append(("nu sandwich brackets the fpt (e = 1..3)", sandwich_ok))

    fast = testideal.fpt(f, bound)
    checks.append(("interval-narrowed fpt matches the candidate walk", fast == report.fpt))

    jump_ok = all(testideal.is_jumping_number(f, lam, bound) for lam in positive)
    checks.append(("left limits differ exactly at the jumps", jump_ok))

    member_ok = True
    engine = FrobeniusRootEngine(f)
    for e in (1, 2):
        root = engine.root_power(1, e)
        if not normal_form(f, bracket_power(root, e)).is_zero():
            member_ok = False
    checks.append(("f lies in the bracket power of its own root", member_ok))

    return checks


_HANDLERS = {
    "fpt": _cmd_fpt,
    "jn": _cmd_jn,
    "tau": _cmd_tau,
    "nu": _cmd_nu,
    "ft": _cmd_ft,
    "candidates": _cmd_candidates,
    "profile": _cmd_profile,
    "constancy": _cmd_constancy,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DomainError, EngineError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
