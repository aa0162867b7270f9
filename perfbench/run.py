"""fptkit benchmark: closed-loop CLI queries with answer checks.

Run from the repository root:

    python3 perfbench/run.py --workload walk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all              # every workload, both modes

With --workload all, each workload and mode runs in a child process of its
own, so that each reads its own ru_maxrss.

One client sends one query at a time: each query is one
fptkit.cli.main([..., "--json"]) call in this process with stdout captured,
and the next query starts only after the previous one returns.  A run
repeats passes over the seed's query list until --seconds is spent; every
pass starts from a fresh import of fptkit, so no module-level cache carries
over from an earlier pass, just as no cache carries over between two CLI
invocations.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs one pass untraced and one traced (spans.py) and reports the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("walk", "sweep", "constancy")
BUDGET_S = 10.0  # per query, wall clock
TRACE_BUDGET_FACTOR = 1.5  # tracing slows every call; the traced pass gets more time
SETUP_SAMPLES = 9
# A typical calibrate() time on a 2-vCPU Xeon with Python 3.11: the reference
# machine that scaled times stand for.
REFERENCE_CALIBRATION_S = 2.4e-3
MIN_PASSES = 3
END_TO_END = {
    "solve_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
CONSTANCY_FIELDS = (
    "fptF",
    "fptFh",
    "fptEqual",
    "jumpingNumbersEqual",
    "testIdealsEqualLocally",
    "jacobianStable",
    "theoremViolation",
)


class QueryOverBudget(BaseException):
    """Raised by the budget alarm.

    A BaseException, so that cli.main's `except Exception` (exit 70) cannot
    turn an over-budget query into an ordinary failed one.
    """


def _alarm(signum, frame):
    raise QueryOverBudget()


def answer_fields(command: str, payload: dict) -> dict:
    """The mathematical fields of a CLI answer; timings and counts are dropped."""
    if command == "constancy":
        return {"records": [{k: r[k] for k in CONSTANCY_FIELDS} for r in payload["records"]]}
    keys = {
        "fpt": ("fpt",),
        "jn": ("fpt", "jumpingNumbers", "testIdeals"),
        "tau": ("testIdeal",),
        "nu": ("nu",),
        "ft": ("ft",),
        "verify": ("passed", "checks"),
    }[command]
    return {k: payload[k] for k in keys}


def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--json"])
    return rc, out.getvalue(), err.getvalue()


def fresh_fptkit(root: str):
    """Import fptkit.cli from <root>/src, dropping any earlier import first."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "fptkit", "cli.py")):
        raise SystemExit(f"fptkit sources not found under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "fptkit" or n.startswith("fptkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("fptkit.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported fptkit from {cli.__file__}, not from {src}")
    return cli


def select(table: dict, workload: str, seed: int) -> list[dict]:
    """One query per pool group, drawn and ordered by the seed."""
    w = table["workloads"][workload]
    rng = random.Random(f"{workload}/{seed}")
    body = [rng.choice(group) for group in w["groups"]]
    rng.shuffle(body)
    return body + [rng.choice(group) for group in w["last"]]


def setup(root: str, workload: str, seed: int):
    """Import fptkit, load the references and generate the query list."""
    gc.collect()
    start = time.perf_counter()
    cli = fresh_fptkit(root)
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    queries = select(table, workload, seed)
    return cli, queries, time.perf_counter() - start


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibration_operands():
    a = {(i, j, k): (i + 2 * j + 3 * k) % 6 + 1 for i in range(5) for j in range(5) for k in range(3)}
    a = {m: c for m, c in a.items() if sum(m) < 5}
    return a, {(k, i, j): c for (i, j, k), c in a.items()}


CALIBRATION_OPERANDS = _calibration_operands()


def calibrate() -> float:
    """Seconds for fixed work of fptkit's kind, written without fptkit.

    A sparse product keyed by exponent tuples, a graded sort and a Fraction
    sum.  Where cores are shared with other tenants, the speed of one core
    can drift by a third within minutes; the time of this fixed work,
    measured before and after each query, tells how fast the machine was
    while the query ran.
    """
    a, b = CALIBRATION_OPERANDS
    start = time.perf_counter()
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % 7
    order = sorted(out, key=lambda m: (sum(m), m))
    sum(Fraction(out[m], 1 + sum(m)) for m in order)
    return time.perf_counter() - start


def machine_speed() -> float:
    """REFERENCE_CALIBRATION_S over the current calibrate() time (median of 3)."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibrate() for _ in range(3))


class Pass:
    """One closed-loop pass over a query list.

    walls holds each query's wall time.  scaled holds it times the mean
    machine speed just before and just after the query, which is the time
    the query would take on the reference machine.  An over-budget query
    keeps its wall time, because the budget is wall time.
    """

    def __init__(self):
        self.walls: list[float] = []  # seconds per query
        self.scaled: list[float] = []
        self.outcomes: list[str] = []
        self.peak_rss_mb = 0.0

    @property
    def solve_s(self) -> float:
        return sum(self.walls)


def run_pass(cli, queries, budget: float, state: dict, skip: dict | None = None, on_query=None) -> Pass:
    """Send every query in order, except the indices in skip.

    skip maps the index of a query that ran over budget in an earlier pass
    to its (wall, scaled) times there; it is not sent again, but counts as
    over budget in this pass too.  state["rss_clean"] turns False for good
    after the first over-budget query, so that memory it grew is never read
    as the peak.
    """
    skip = skip or {}
    result = Pass()
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        gc.collect()
        before = machine_speed()
        for i, q in enumerate(queries):
            if i in skip:
                result.walls.append(skip[i][0])
                result.scaled.append(skip[i][1])
                result.outcomes.append("over_budget")
                continue
            over = False
            rc, out = None, ""
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    rc, out, _ = call_cli(cli.main, q["argv"])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except QueryOverBudget:
                over = True
            wall = time.perf_counter() - start
            gc.collect()
            after = machine_speed()
            result.walls.append(wall)
            result.scaled.append(wall if over else wall * (before + after) / 2)
            before = after
            if on_query is not None:
                on_query(q)
            if over:
                outcome = "over_budget"
                state["rss_clean"] = False
            elif rc != 0:
                outcome = f"exit_{rc}"
            else:
                outcome = check_answer(q, out)
            if state["rss_clean"]:
                result.peak_rss_mb = max(result.peak_rss_mb, max_rss_mb())
            result.outcomes.append(outcome)
    finally:
        signal.signal(signal.SIGALRM, old)
    return result


def check_answer(q: dict, out: str) -> str:
    argv = q["argv"]
    try:
        got = answer_fields(argv[0], json.loads(out))
    except (ValueError, KeyError):
        return "bad_output"
    if got != q["expect"]:
        return "wrong"
    closed = oracle.closed_form(argv[0], int(argv[2]), argv[5])
    if closed is not None and any(got.get(k) != v for k, v in closed.items()):
        return "wrong"
    return "ok"


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run_metadata(workload: str, seed: int, budget: float) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "budget_s": budget,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(os.getcwd()),
    }


def git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def summarize_outcomes(passes: list[Pass]) -> dict:
    counts: dict = {}
    for p in passes:
        for o in p.outcomes:
            counts[o] = counts.get(o, 0) + 1
    return counts


def measure(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[Pass]]:
    """Untraced passes until the time is spent, at least MIN_PASSES of them.

    A query's latency is the median of its wall times over the passes, or
    +inf when it failed in any pass.  A query that ran over budget in the
    first pass is not sent again; it counts as over budget in every pass,
    with the times of the first.
    """
    state = {"rss_clean": True}
    setups: list[float] = []
    passes: list[Pass] = []
    skip: dict = {}
    start = time.perf_counter()
    while True:
        cli, queries, setup_s = scaled_setup(root, workload, seed)
        setups.append(setup_s)
        begun = time.perf_counter()
        passes.append(run_pass(cli, queries, BUDGET_S, state, skip))
        first = passes[0]
        skip = {i: (first.walls[i], first.scaled[i]) for i, o in enumerate(first.outcomes) if o == "over_budget"}
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - begun) > start + seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(scaled_setup(root, workload, seed)[2])
    ok = [all(p.outcomes[i] == "ok" for p in passes) for i in range(len(queries))]
    walls, latencies = per_query(passes, "scaled", ok)
    raw_walls, raw_latencies = per_query(passes, "walls", ok)
    outcomes = summarize_outcomes(passes)
    attempted = sum(outcomes.values())
    values = {
        "solve_s": sum(walls),
        "query_p50_ms": nearest_rank(latencies, 0.5) * 1000,
        "query_p90_ms": nearest_rank(latencies, 0.9) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "ok_rate": outcomes.get("ok", 0) / attempted,
    }
    info = {
        "passes": len(passes),
        "queries": len(queries),
        "percentile_samples": len(latencies),
        "p50_samples_beyond": len(latencies) - math.ceil(0.5 * len(latencies)),
        "p90_samples_beyond": len(latencies) - math.ceil(0.9 * len(latencies)),
        "setup_samples": len(setups),
        "fail_rate": 1 - values["ok_rate"],
        "outcomes": outcomes,
        "pass_solve_s": [p.solve_s for p in passes],
        "wall_solve_s": sum(raw_walls),
        "wall_query_p50_ms": nearest_rank(raw_latencies, 0.5) * 1000,
        "wall_query_p90_ms": nearest_rank(raw_latencies, 0.9) * 1000,
        "machine_speed": statistics.median(machine_speed() for _ in range(5)),
    }
    return values, info, passes


def per_query(passes: list[Pass], field: str, ok: list[bool]) -> tuple[list[float], list[float]]:
    """Each query's median time over the passes, and the same with +inf for
    a query that failed in any pass."""
    times = []
    for i in range(len(ok)):
        times.append(statistics.median(getattr(p, field)[i] for p in passes))
    return times, [t if good else math.inf for t, good in zip(times, ok)]


def scaled_setup(root: str, workload: str, seed: int):
    before = machine_speed()
    cli, queries, elapsed = setup(root, workload, seed)
    return cli, queries, elapsed * (before + machine_speed()) / 2


def measure_traced(root: str, workload: str, seed: int) -> tuple[dict, dict, list[Pass]]:
    """One untraced and one traced pass; per-layer metrics."""
    state = {"rss_clean": True}
    cli, queries, _ = setup(root, workload, seed)
    plain = run_pass(cli, queries, BUDGET_S, state)
    cli, queries, _ = setup(root, workload, seed)
    tracer = spans.Tracer()
    tracer.install()
    traced = run_pass(
        cli, queries, BUDGET_S * TRACE_BUDGET_FACTOR, state, on_query=tracer.after_query
    )
    values = tracer.metrics(len(queries))
    values["trace.overhead_s"] = traced.solve_s - plain.solve_s
    spans.check_layers(workload, values)
    info = {
        "trace_budget_s": BUDGET_S * TRACE_BUDGET_FACTOR,
        "untraced_solve_s": plain.solve_s,
        "traced_solve_s": traced.solve_s,
        "layer_self_s": tracer.layer_self_time(),
        "layer_split": spans.layer_split(workload, tracer.layer_self_time()),
        "landmarks": tracer.landmarks,
        "names_wrapped": tracer.aliases,
        "outcomes": summarize_outcomes([plain, traced]),
    }
    return values, info, [plain, traced]


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    root = os.getcwd()
    if traced:
        values, info, passes = measure_traced(root, workload, seed)
        units = spans.UNITS
    else:
        values, info, passes = measure(root, workload, seed, seconds)
        units = END_TO_END
    outcomes = [o for p in passes for o in p.outcomes]
    meta = run_metadata(workload, seed, BUDGET_S)
    meta.update(info)
    for name in sorted(values):
        print(f"{workload:>9}  {name:<42} {values[name]:>14.6f} {units[name]}")
    print("meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": not any(o in ("wrong", "bad_output") for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o != "ok"),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def run_child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """run_one in a child process; its report lines are passed on."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced))]
    child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{workload} --trace {int(traced)} exited with code {child.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fptkit closed-loop CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return 0
    results = {}
    for workload in WORKLOADS:
        for traced in (False, True):
            result = run_child(workload, args.seed, args.seconds, traced)
            merged = results.setdefault(workload, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}})
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(result["metrics"])
    spans.check_layers_all({w: r["metrics"] for w, r in results.items()})
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
