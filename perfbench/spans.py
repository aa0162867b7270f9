"""Tracing for the benchmark's per-layer metrics, kept out of fptkit itself.

Tracer.install() wraps the public functions of each fptkit layer after a
fresh import.  A function imported with `from .x import y` lives under
several names (testideal.canonical_pair, cli.normal_form, ...), so every
module attribute and class attribute that is the same function object is
replaced, not just the defining one.

Each call opens a span on an in-memory stack; the span below it is its
parent.  When a span closes, its duration is added to its parent's child
time and its own self time (duration minus child time) to its name.  Only
these per-name sums are kept, because a walk makes millions of calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import oracle

# (span name, module, attribute); "Class.method" names a method.
TARGETS = (
    ("basep.candidate_set", "fptkit.basep", "candidate_set"),
    ("basep.candidates_left_open", "fptkit.basep", "candidates_left_open"),
    ("basep.canonical_pair", "fptkit.basep", "canonical_pair"),
    ("testideal.ideal_at", "fptkit.testideal", "TestIdealComputer.ideal_at"),
    ("testideal.left_limit_at", "fptkit.testideal", "TestIdealComputer.left_limit_at"),
    ("testideal.jumping_numbers_unit_interval", "fptkit.testideal", "jumping_numbers_unit_interval"),
    ("froot.engine", "fptkit.froot", "FrobeniusRootEngine.__init__"),
    ("froot.root_power", "fptkit.froot", "FrobeniusRootEngine.root_power"),
    ("groebner.basis", "fptkit.groebner", "Ideal.basis"),
    ("groebner.normal_form", "fptkit.groebner", "normal_form"),
    ("groebner.maximal_ideal_power", "fptkit.groebner", "maximal_ideal_power"),
    ("groebner.artinian_length", "fptkit.groebner", "artinian_length"),
    ("poly.power", "fptkit.poly", "power"),
    ("poly.mul", "fptkit.poly", "Polynomial.__mul__"),
    ("constancy.local_ideal_equal", "fptkit.constancy", "local_ideal_equal"),
    ("constancy.singularity_profile", "fptkit.constancy", "singularity_profile"),
    ("cli.main", "fptkit.cli", "main"),
    ("parsing.parse_polynomial", "fptkit.parsing", "parse_polynomial"),
)

UNITS = {
    "basep.candidate_set.calls": "count",
    "basep.candidate_set.self_s": "s",
    "basep.candidates": "count",
    "basep.candidates_left_open.calls": "count",
    "basep.candidates_left_open.self_s": "s",
    "basep.canonical_pair.calls": "count",
    "basep.canonical_pair.self_s": "s",
    "basep.candidates_per_jump": "1/jump",
    "testideal.ideal_at.calls": "count",
    "testideal.ideal_at.self_s": "s",
    "testideal.left_limit_at.calls": "count",
    "testideal.left_limit_at.self_s": "s",
    "testideal.jumps": "count",
    "testideal.evals_per_query": "1/query",
    "froot.engines": "count",
    "froot.root_power.calls": "count",
    "froot.root_power.self_s": "s",
    "froot.digit_steps": "count",
    "froot.states": "count",
    "froot.steps_per_eval": "1/eval",
    "froot.states_per_eval": "1/eval",
    "groebner.basis.calls": "count",
    "groebner.basis.self_s": "s",
    "groebner.basis_calls_per_eval": "1/eval",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.self_s": "s",
    "groebner.maximal_ideal_power.calls": "count",
    "groebner.artinian_length.calls": "count",
    "groebner.artinian_length.self_s": "s",
    "poly.power.calls": "count",
    "poly.power.self_s": "s",
    "poly.mul.calls": "count",
    "poly.mul.self_s": "s",
    "constancy.local_ideal_equal.calls": "count",
    "constancy.local_ideal_equal.self_s": "s",
    "constancy.singularity_profile.calls": "count",
    "constancy.singularity_profile.self_s": "s",
    "cli.main.self_s": "s",
    "parsing.parse_polynomial.calls": "count",
    "parsing.parse_polynomial.self_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must not read zero on the named workloads, whose queries always
# reach these functions: a zero means one was renamed or bypassed.
ALL = ("walk", "sweep", "constancy")
MUST_COUNT = {
    "basep.candidate_set.calls": ("walk", "constancy"),
    "basep.candidates": ("walk", "constancy"),
    "basep.candidates_left_open.calls": ("walk", "sweep"),
    "basep.canonical_pair.calls": ALL,
    "testideal.ideal_at.calls": ALL,
    "testideal.left_limit_at.calls": ("walk",),
    "testideal.jumps": ("walk", "constancy"),
    "froot.engines": ALL,
    "froot.root_power.calls": ALL,
    "froot.digit_steps": ALL,
    "froot.states": ALL,
    "groebner.basis.calls": ALL,
    "groebner.normal_form.calls": ALL,
    "groebner.maximal_ideal_power.calls": ("constancy",),
    "groebner.artinian_length.calls": ALL,
    "poly.power.calls": ALL,
    "poly.mul.calls": ALL,
    "constancy.local_ideal_equal.calls": ("constancy",),
    "constancy.singularity_profile.calls": ("constancy",),
    "parsing.parse_polynomial.calls": ALL,
}

ENGINE_LAYERS = ("basep", "froot", "testideal")
ALGEBRA_LAYERS = ("groebner", "poly")
LANDMARK = ("groebner.basis", "testideal.ideal_at", "froot.root_power", "basep.canonical_pair")


class TraceError(SystemExit):
    """A traced function is missing or a layer that must do work did none."""


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.aliases: dict = {}
        self.landmarks: list = []
        self._stack: list = []
        self._engines: dict = {}  # id(engine) -> ids of the ideals it returned
        self._retired_states = 0
        self._before: dict = {}

    # -- hooks run after a traced call returns ---------------------------------

    def _count_candidates(self, args, kwargs, result):
        self.counts["basep.candidates"] += len(result)

    def _count_jumps(self, args, kwargs, result):
        self.counts["testideal.jumps"] += len(result.jumping_numbers) - 1

    def _new_engine(self, args, kwargs, result):
        # A new engine at a known address means the old one is gone.
        old = self._engines.pop(id(args[0]), None)
        if old is not None:
            self._retired_states += len(old)
        self._engines[id(args[0])] = set()

    def _root_power(self, args, kwargs, result):
        e = kwargs["e"] if "e" in kwargs else args[2]
        self.counts["froot.digit_steps"] += e
        self._engines.setdefault(id(args[0]), set()).add(id(result))

    HOOKS = {
        "basep.candidate_set": _count_candidates,
        "basep.candidates_left_open": _count_candidates,
        "testideal.jumping_numbers_unit_interval": _count_jumps,
        "froot.engine": _new_engine,
        "froot.root_power": _root_power,
    }

    # -- installation -------------------------------------------------------------

    def _wrap(self, name, fn, hook):
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [0.0]  # time spent in child spans
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - span[0]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TARGETS function under every name fptkit binds it to."""
        modules = [m for n, m in sys.modules.items() if n == "fptkit" or n.startswith("fptkit.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner, _, fname = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            orig = vars(holder).get(fname) if holder is not None else None
            if orig is None:
                raise TraceError(f"trace target {module_name}.{attr} not found")
            wrapper = self._wrap(name, orig, self.HOOKS.get(name))
            patched = 0
            for space in [holder] if owner else modules:
                for key, value in list(vars(space).items()):
                    if value is orig:
                        setattr(space, key, wrapper)
                        patched += 1
            self.aliases[name] = patched

    def after_query(self, query: dict) -> None:
        """Per-query counts for the worked quartic, the landmark walk."""
        now = {name: self.calls[name] for name in LANDMARK}
        argv = query["argv"]
        if argv[0] == "jn" and (int(argv[2]), argv[5]) == oracle.QUARTIC:
            delta = {f"{n}.calls": now[n] - self._before.get(n, 0) for n in LANDMARK}
            self.landmarks.append({"argv": argv, **delta})
        self._before = now

    # -- results --------------------------------------------------------------------

    def layer_self_time(self) -> dict:
        out: dict = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)

    def metrics(self, queries: int) -> dict:
        c, s, k = self.calls, self.self_s, self.counts
        evals = c["froot.root_power"]
        states = self._retired_states + sum(len(ids) for ids in self._engines.values())

        def ratio(a, b):
            return a / b if b else 0.0

        values = {}
        for name in UNITS:
            head, _, tail = name.rpartition(".")
            if tail == "calls":
                values[name] = c[head]
            elif tail == "self_s":
                values[name] = s[head]
        values.update(
            {
                "basep.candidates": k["basep.candidates"],
                "basep.candidates_per_jump": ratio(k["basep.candidates"], k["testideal.jumps"]),
                "testideal.jumps": k["testideal.jumps"],
                "testideal.evals_per_query": ratio(evals, queries),
                "froot.engines": c["froot.engine"],
                "froot.digit_steps": k["froot.digit_steps"],
                "froot.states": states,
                "froot.steps_per_eval": ratio(k["froot.digit_steps"], evals),
                "froot.states_per_eval": ratio(states, evals),
                "groebner.basis_calls_per_eval": ratio(c["groebner.basis"], evals),
            }
        )
        return values


def check_layers(workload: str, values: dict) -> None:
    dead = [m for m, homes in MUST_COUNT.items() if workload in homes and not values[m]]
    if dead:
        raise TraceError(f"per-layer metrics read zero on {workload}: {', '.join(dead)}")


def check_layers_all(results: dict) -> None:
    dead = [m for m in MUST_COUNT if not any(r.get(m, {}).get("value") for r in results.values())]
    if dead:
        raise TraceError(f"per-layer metrics read zero on every workload: {', '.join(dead)}")


def layer_split(workload: str, layer_s: dict) -> dict:
    """Shares of traced self time, and the prediction each workload makes."""
    total = sum(layer_s.values()) or 1.0
    engine = sum(layer_s.get(n, 0.0) for n in ENGINE_LAYERS) / total
    algebra = sum(layer_s.get(n, 0.0) for n in ALGEBRA_LAYERS) / total
    if workload == "walk":
        prediction, holds = "basep+froot+testideal > groebner+poly", engine > algebra
    else:
        prediction, holds = "groebner+poly > 1/2 of self time", algebra > 0.5
    return {"engine_share": engine, "algebra_share": algebra, "prediction": prediction, "holds": holds}
