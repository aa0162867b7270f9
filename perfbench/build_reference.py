"""Build perfbench/reference.json: the query pool and its reference answers.

Run from the repository root:

    python3 perfbench/build_reference.py

A generator seeded with POOL_SEED draws candidate queries for each
workload, runs each one through fptkit's CLI, and keeps those that answer
within a cap on their cost.  The cost of a query is the number of Python
function calls it makes in a freshly imported fptkit: a count that does not
depend on the machine's speed or load, so the same fptkit and Python
version rebuild the same table.  Every kept answer is cross-checked against
the closed forms and brute-force expansions in oracle.py, so the table does
not rest on fptkit's root engine alone.  Kept queries of one kind are sorted
by cost and paired; a run of the benchmark draws one query of each pair
(run.py), so every seed gets a different query list of about the same cost.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import re
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from fptkit import testideal  # noqa: E402
from fptkit.basep import candidate_set  # noqa: E402
from fptkit.constancy import singularity_profile  # noqa: E402
from fptkit.groebner import Ideal  # noqa: E402
from fptkit.parsing import parse_polynomial  # noqa: E402
from fptkit.poly import Polynomial, PolyRing  # noqa: E402

POOL_SEED = 0
# Every run asks for the cusp at each of these primes; the last two cover
# both residues mod 3 of the closed form at large p.  The random sweep
# queries are capped well below the cost of the dozen dearest cusps (each over
# 150,000 calls), so the p90 of a sweep always falls on a cusp and does not
# depend on the draw.
CUSP_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
               101, 103]
FT_IDEALS = ["x; y", "x^2; y", "x; y^2", "x^2; y^2", "x^2; x*y; y^2", "x^3; y^2"]
# The dearer query of a pair costs at most this many times the cheaper.
PAIR_WIDTH = 1.05
# (command, pairs) per workload: each pair adds two pool entries, one per run.
WALK_MIX = [("jn", 75), ("ft", 15), ("verify", 10)]
# jn queries with 1.5*10^3 to 1.5*10^4 candidates, between the small walks
# and the worked quartic.  Every run asks all of them, and each costs more
# than any small walk; with the quartic and the budgeted query they are the
# 14 dearest of a run's 114 queries, so the p90 of a walk falls on the third
# cheapest of them and does not depend on the draw.
WALK_MID = 12
SWEEP_MIX = [("fpt", 30), ("tau", 25), ("nu", 25)]
TRIVARIATE_PAIRS = 6
CONSTANCY_PAIRS = 100
# Cost caps, in Python function calls (0.3 to 0.8 us each on a 2-vCPU Xeon
# with Python 3.11).
WALK_MAX_CALLS = 500_000
WALK_MID_MAX_CALLS = 1_500_000
SWEEP_MAX_CALLS = 60_000
TRIVARIATE_MAX_CALLS = 100_000
CONSTANCY_MAX_CALLS = 700_000
# Known non-terminating walks at the default bound, one group of six: each
# run ends with one of them.  The answers stored for them come from explicit
# bounds that agree with each other.
BUDGETED = [("x^2*y", "x; y"), ("x^5 + y^4", "x^2; y^2")]


def term_text(c: int, exps, names) -> str:
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    body = "*".join(factors)
    return body if c == 1 else f"{c}*{body}"


def poly_text(terms: dict, names) -> str:
    order = sorted(terms, key=lambda m: (-sum(m), [-e for e in m]))
    return " + ".join(term_text(terms[m], m, names) for m in order)


def composition(rng, d: int, n: int, mixed: bool):
    while True:
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        exps = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        if not mixed or sum(1 for e in exps if e) >= 2:
            return tuple(exps)


def singular_poly(rng, p: int, names, pure: tuple, extra: int, extra_degrees) -> str:
    """c_i * x_i^a_i for the pure powers, plus mixed terms of the given degrees."""
    n = len(names)
    terms = {}
    for i, a in enumerate(pure):
        m = tuple(a if j == i else 0 for j in range(n))
        terms[m] = rng.randrange(1, p)
    for _ in range(extra):
        terms[composition(rng, rng.choice(extra_degrees), n, True)] = rng.randrange(1, p)
    return poly_text(terms, names)


_COUNTS: dict = {}


def candidate_count(p: int, bound: int) -> int:
    if p**bound > 16_000:  # beyond this every count exceeds the walk range
        return 10**9
    key = (p, bound)
    if key not in _COUNTS:
        _COUNTS[key] = len(candidate_set(p, bound, (Fraction(0), Fraction(1))))
    return _COUNTS[key]


def default_bound(p: int, names, text: str) -> int:
    return testideal.default_bound(parse_polynomial(text, PolyRing(p, names)))


def argv_for(command: str, p: int, names, text: str, **extra) -> list[str]:
    argv = [command, "--char", str(p), "--vars", ",".join(names), text]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


class OverCap(BaseException):
    """A query made more calls than its cap; not caught by cli.main."""


def ask(argv: list[str], max_calls: float = math.inf) -> tuple[int, dict | None, int]:
    """Exit code, JSON answer and call count of one query in a fresh fptkit.

    A query that goes over max_calls is stopped and reported as exit -1.
    The regex cache and the garbage collector are emptied first, so that
    the count does not depend on the queries asked before.
    """
    main = run.fresh_fptkit(os.getcwd()).main
    re.purge()
    gc.collect()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if calls > max_calls:
                raise OverCap()

    sys.setprofile(count)
    try:
        rc, out, _ = run.call_cli(main, argv)
    except OverCap:
        return -1, None, calls
    finally:
        sys.setprofile(None)
    return rc, (json.loads(out) if rc == 0 else None), calls


# -- cross-checks ----------------------------------------------------------------


class Checker:
    """Brute-force checks of one polynomial's reference answers."""

    def __init__(self, p: int, names, text: str):
        self.ring = PolyRing(p, names)
        self.p = p
        self.f = parse_polynomial(text, self.ring)
        self.powers = oracle.Powers(dict(self.f._terms), p)
        self.done = 0

    def fpt(self, value: str) -> None:
        lam = Fraction(value)
        for e in (1, 2):
            nu = oracle.brute_nu(self.powers, e)
            if nu is None:
                break
            q = self.p**e
            if not Fraction(nu, q) < lam <= Fraction(nu + 1, q):
                raise AssertionError(f"fpt {value} outside ({nu}/{q}, {nu + 1}/{q}]")
            self.done += 1

    def nu(self, e: int, value: int) -> None:
        nu = oracle.brute_nu(self.powers, e)
        if nu is not None:
            if nu != value:
                raise AssertionError(f"nu(e={e}) = {value}, expansion gives {nu}")
            self.done += 1

    def root_inside(self, N: int, e: int, ideal: list[str]) -> bool:
        """Check root_e(f^N) inside the ideal; False when f^N is too large."""
        g = self.powers.get(N)
        if g is None:
            return False
        target = Ideal(self.ring, [parse_polynomial(t, self.ring) for t in ideal])
        for gen in oracle.root_generators(g, self.p**e):
            if not target.contains(Polynomial(self.ring, gen)):
                raise AssertionError(f"root_{e}(f^{N}) not inside {ideal}")
        self.done += 1
        return True

    def tau(self, lam: str, ideal: list[str], before=None) -> None:
        """root_e(f^ceil(q*lam)) lies in tau(f^lam); with before = (mu0, ideal0),
        the ideal on [mu0, lam), also root_e(f^(ceil(q*lam) - 1)) when
        (ceil(q*lam) - 1)/q >= mu0."""
        lam = Fraction(lam)
        if lam == 0:
            return
        for e in (1, 2):
            q = self.p**e
            N = -((-q * lam.numerator) // lam.denominator)
            if not self.root_inside(N, e, ideal):
                break
            if before is not None and Fraction(N - 1, q) >= Fraction(before[0]):
                self.root_inside(N - 1, e, before[1])


def cross_check(argv: list[str], expect: dict) -> int:
    command, p, names, text = argv[0], int(argv[2]), argv[4].split(","), argv[5]
    closed = oracle.closed_form(command, p, text)
    if closed is not None and any(expect[k] != v for k, v in closed.items()):
        raise AssertionError(f"{argv}: {expect} disagrees with the closed form {closed}")
    checker = Checker(p, names, text)
    if "fpt" in expect:
        checker.fpt(expect["fpt"])
    if "nu" in expect:
        checker.nu(int(argv[argv.index("--e") + 1]), expect["nu"])
    if "testIdeal" in expect:
        checker.tau(argv[argv.index("--lambda") + 1], expect["testIdeal"])
    if "jumpingNumbers" in expect:
        jumps, ideals = expect["jumpingNumbers"], expect["testIdeals"]
        for i, lam in enumerate(jumps):
            checker.tau(lam, ideals[i], (jumps[i - 1], ideals[i - 1]) if i else None)
    for record in expect.get("records", []):
        checker.fpt(record["fptF"])
    return checker.done + (closed is not None)


# -- generators -------------------------------------------------------------------


class Pool:
    def __init__(self):
        self.seen: set = set()
        self.items: dict = {}
        self.checks = 0

    def offer(self, argv: list[str], max_calls: float, tag: str | None = None, min_calls: int = 0) -> bool:
        key = (argv[2], argv[5])
        if key in self.seen:
            return False
        rc, payload, calls = ask(argv, max_calls)
        if rc != 0 or calls < min_calls:
            return False
        self.seen.add(key)
        expect = run.answer_fields(argv[0], payload)
        self.checks += cross_check(argv, expect)
        item = {"argv": argv, "expect": expect, "calls": calls}
        self.items.setdefault(tag or argv[0], []).append(item)
        return True

    def pairs(self, tag: str, count: int) -> list[list[dict]]:
        """The cheapest count pairs of neighbours in order of cost whose dearer
        query costs at most PAIR_WIDTH times the cheaper; a query with no such
        neighbour is left out.  A loose pair would move a percentile by its
        width whenever the percentile falls on it."""
        items = sorted(self.items.get(tag, []), key=lambda it: it["calls"])
        out: list[list[dict]] = []
        i = 0
        while i + 1 < len(items) and len(out) < count:
            if items[i + 1]["calls"] <= PAIR_WIDTH * items[i]["calls"]:
                out.append(items[i : i + 2])
                i += 2
            else:
                i += 1
        return out


def build_walk(rng) -> dict:
    pool = Pool()
    names = ["x", "y"]
    for command, pairs in WALK_MIX:
        while len(pool.pairs(command, pairs)) < pairs:
            p = rng.choice([2, 2, 3, 3, 5, 7])
            a, b = sorted(rng.sample(range(2, 8), 2))
            text = singular_poly(rng, p, names, (a, b), rng.randint(0, 2), range(3, b + 1))
            bound = default_bound(p, names, text)
            if not 100 <= candidate_count(p, bound) <= 1500:
                continue
            extra = {"ideal": rng.choice(FT_IDEALS)} if command == "ft" else {}
            pool.offer(argv_for(command, p, names, text, **extra), WALK_MAX_CALLS)
    while len(pool.items.get("mid", [])) < WALK_MID:
        p = rng.choice([2, 3, 5, 7])
        a, b = sorted(rng.sample(range(2, 10), 2))
        text = singular_poly(rng, p, names, (a, b), rng.randint(0, 2), range(3, b + 1))
        if 1500 <= candidate_count(p, default_bound(p, names, text)) <= 15_000:
            pool.offer(argv_for("jn", p, names, text), WALK_MID_MAX_CALLS, tag="mid", min_calls=WALK_MAX_CALLS)
    groups = [g for command, pairs in WALK_MIX for g in pool.pairs(command, pairs)]
    groups += [[item] for item in pool.items["mid"]]
    quartic = argv_for("jn", oracle.QUARTIC[0], names, oracle.QUARTIC[1])
    if not pool.offer(quartic, math.inf, tag="quartic"):
        raise SystemExit("the worked quartic did not answer")
    groups.append(pool.items["quartic"])
    budgeted = []
    for text, ideal in BUDGETED:
        for command in ("jn", "ft", "verify"):
            extra = {"ideal": ideal} if command == "ft" else {}
            answers = []
            for bound in (4, 5):
                rc, payload, _ = ask(argv_for(command, 5, names, text, bound=bound, **extra))
                answers.append(run.answer_fields(command, payload) if rc == 0 else None)
            if answers[0] is None or answers[0] != answers[1]:
                raise SystemExit(f"no stable answer for {command} {text} at p=5")
            argv = argv_for(command, 5, names, text, **extra)
            pool.checks += cross_check(argv, answers[0])
            budgeted.append({"argv": argv, "expect": answers[0], "calls": None})
    return {"groups": groups, "last": [budgeted], "crossChecks": pool.checks}


def build_sweep(rng) -> dict:
    pool = Pool()
    names = ["x", "y"]
    for command, pairs in SWEEP_MIX:
        while len(pool.pairs(command, pairs)) < pairs:
            p = rng.choice([2, 3, 5, 7, 11, 13])
            a, b = sorted(rng.sample(range(2, 7), 2))
            text = singular_poly(rng, p, names, (a, b), rng.randint(0, 2), range(3, b + 1))
            if text.replace(" ", "") in ("x^2+y^3", "x^3+y^2"):
                continue
            if command == "tau":
                den = rng.choice([2, 3, 4, 5, 6, 8, 10, 12])
                extra = {"lambda": oracle.fmt(Fraction(rng.randrange(1, den), den))}
            elif command == "nu":
                extra = {"e": rng.choice([1, 2, 3])}
            else:
                extra = {}
            pool.offer(argv_for(command, p, names, text, **extra), SWEEP_MAX_CALLS)
    tri = ["x", "y", "z"]
    while len(pool.pairs("tri", TRIVARIATE_PAIRS)) < TRIVARIATE_PAIRS:
        pure = tuple(rng.choice([2, 2, 3, 3, 4]) for _ in tri)
        text = singular_poly(rng, 11, tri, pure, rng.randint(0, 1), range(3, 5))
        pool.offer(argv_for("fpt", 11, tri, text), TRIVARIATE_MAX_CALLS, tag="tri")
    for p in CUSP_PRIMES:
        pool.offer(argv_for("fpt", p, names, "x^2 + y^3"), math.inf, tag="cusp")
    groups = [g for command, pairs in SWEEP_MIX for g in pool.pairs(command, pairs)]
    groups += pool.pairs("tri", TRIVARIATE_PAIRS) + [[item] for item in pool.items["cusp"]]
    return {"groups": groups, "last": [], "crossChecks": pool.checks}


CONSTANCY_BASES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]


def build_constancy(rng) -> dict:
    pool = Pool()
    names = ["x", "y"]
    while len(pool.pairs("constancy", CONSTANCY_PAIRS)) < CONSTANCY_PAIRS:
        p = rng.choice([2, 3, 5, 5, 7, 7])
        a, b = rng.choice(CONSTANCY_BASES)
        text = singular_poly(rng, p, names, (a, b), rng.randint(0, 2), range(b + 1, b + 3))
        profile = singularity_profile(parse_polynomial(text, PolyRing(p, names)))
        if not profile.is_isolated or profile.ell > 4:
            continue
        seed = rng.randrange(10**6)
        pool.offer(argv_for("constancy", p, names, text, samples=1, seed=seed), CONSTANCY_MAX_CALLS)
    return {"groups": pool.pairs("constancy", CONSTANCY_PAIRS), "last": [], "crossChecks": pool.checks}


def main() -> int:
    table = {"poolSeed": POOL_SEED, "workloads": {}}
    ask(argv_for("fpt", 3, ["x", "y"], "x^2 + y^5"))  # the first query in a process makes a few more calls
    for name, build in (("walk", build_walk), ("sweep", build_sweep), ("constancy", build_constancy)):
        start = time.perf_counter()
        table["workloads"][name] = build(random.Random(f"{name}:{POOL_SEED}"))
        w = table["workloads"][name]
        print(
            f"{name}: {len(w['groups'])} groups, {len(w['last'])} budgeted groups, "
            f"{w['crossChecks']} cross-checks, {time.perf_counter() - start:.1f} s",
            file=sys.stderr,
        )
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
