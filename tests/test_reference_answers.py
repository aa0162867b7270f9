"""Replay the benchmark's reference answers for the walk, sweep and
constancy pools.

Every query in `perfbench/reference.json` (pool groups and `last` entries)
runs through the CLI in-process; its JSON payload must match the recorded
`expect` on expect's keys, or, for a constancy report, on each record's
answer fields.  The `jn` and `tau` answers pin reduced-basis strings, so a
change to the canonical form fails here as well as in the benchmark.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fptkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"
RECORD_FIELDS = (
    "fptF",
    "fptFh",
    "fptEqual",
    "jumpingNumbersEqual",
    "testIdealsEqualLocally",
    "jacobianStable",
    "theoremViolation",
)


def queries(workload):
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload]
    return [q for group in table["groups"] + table["last"] for q in group]


def answer(payload, expect):
    if "records" in expect:
        return {"records": [{k: r[k] for k in RECORD_FIELDS} for r in payload["records"]]}
    return {k: payload.get(k) for k in expect}


@pytest.mark.parametrize("workload", ["walk", "sweep", "constancy"])
def test_reference_answers(workload):
    wrong = []
    for q in queries(workload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(q["argv"] + ["--json"])
        got = answer(json.loads(out.getvalue()), q["expect"]) if rc == 0 else {}
        if rc != 0 or got != q["expect"]:
            wrong.append((q["argv"], rc, got))
    assert not wrong, wrong[:3]


def test_trace_targets_resolve():
    # The traced benchmark wraps the functions named in perfbench/spans.TARGETS
    # and stops when one is missing; resolve them the same way, in a fresh
    # interpreter, so that a rename fails here first.
    script = (
        "import importlib, spans\n"
        "for _, module, attr in spans.TARGETS:\n"
        "    holder = importlib.import_module(module)\n"
        "    for part in attr.split('.'):\n"
        "        holder = vars(holder).get(part)\n"
        "        if holder is None:\n"
        "            print(module + '.' + attr)\n"
        "            break\n"
    )
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "", f"trace targets not found: {done.stdout.split()}"


@pytest.mark.parametrize("workload", ["walk", "sweep", "constancy"])
def test_traced_workload_reaches_every_layer(workload):
    # The traced benchmark stops when a layer it requires reads zero calls
    # (perfbench/spans.MUST_COUNT); replay the seed-1 query list under the
    # same tracer, in a fresh interpreter, so that a bypassed layer fails here.
    script = (
        "import json, sys, run, spans\n"
        f"cli = run.fresh_fptkit({str(ROOT)!r})\n"
        "with open(run.REFERENCE, encoding='utf-8') as fh:\n"
        f"    queries = run.select(json.load(fh), {workload!r}, 1)\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "codes = [run.call_cli(cli.main, q['argv'])[0] for q in queries]\n"
        "if any(codes):\n"
        "    sys.exit(f'exit codes {codes}')\n"
        f"spans.check_layers({workload!r}, tracer.metrics(len(queries)))\n"
    )
    path = [str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
