"""One workload in a fresh interpreter: set-up, timed passes, checks.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

A pass runs the workload's whole op list once, after emptying ctxlab's memo
caches, so every pass does the same work.  Passes repeat while another one
fits in ``--seconds`` (at least one).  With ``--trace 1`` there are exactly
three: untraced, traced, untraced, so per-layer numbers describe one pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import TRACED, Tracer, hit_ratio, median  # noqa: E402


def reference_work() -> int:
    """Fixed pure-Python work of the kinds ctxlab spends its time on:
    integer arithmetic, Fractions, dicts of strings.  It never changes, so
    its duration tracks the speed the shared machine gives this process."""
    x = 0
    for i in range(60000):
        x += i * i % 7
    f = Fraction(0)
    for i in range(1, 800):
        f += Fraction(1, i)
    size = 0
    for _ in range(4):
        size += len({str(i): (i, i) for i in range(5000)})
    return x + f.numerator % 7 + size


class Speed:
    """Durations of ``reference_work``, sampled between ops every PERIOD
    seconds; ``current`` is the median of the last three."""

    PERIOD = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.due = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        now = time.perf_counter()
        self.samples.append(now - start)
        self.due = now + self.PERIOD

    def current(self) -> float:
        return statistics.median(self.samples[-3:])


def setup_sample(workload: str, data: dict) -> dict:
    """One set-up in this fresh interpreter, with the reference work timed
    three times just before and three times just after it."""
    speed = Speed()
    for _ in range(3):
        speed.sample()
    start = time.perf_counter()
    workloads.setup(workload, data)
    setup_s = time.perf_counter() - start
    for _ in range(3):
        speed.sample()
    return {"setup_s": setup_s, "ref_s": statistics.median(speed.samples)}


def outcome(op, error, result):
    """("ok" | "failed" | "wrong", message, known) of one op.  A failure is
    known only when it raised the exception the op names in ``known``."""
    if error is not None:
        kind = getattr(error, "kind", type(error).__name__)
        return "failed", f"{kind}: {str(error)[:120]}", kind == op.known
    problem = op.check(result)
    return ("wrong", problem, False) if problem else ("ok", None, False)


def tally(ops, outcomes_per_pass) -> dict:
    """Attempted, failed, wrong and unexpected counts over all passes, the
    failures grouped by op and input, and whether the run is correct: no
    wrong answer and no exception other than an op's known one."""
    failures: dict[tuple, dict] = {}
    attempted = failed = wrong = unexpected = 0
    for outcomes in outcomes_per_pass:
        for op, (status, message, known) in zip(ops, outcomes):
            attempted += 1
            if status == "ok":
                continue
            failed += 1
            wrong += status == "wrong"
            unexpected += not known
            key = (op.kind, op.label, status, message)
            entry = failures.setdefault(key, {"op": op.kind, "input": op.label,
                                              "status": status, "error": message,
                                              "known": known, "count": 0})
            entry["count"] += 1
    return {"correct": wrong == 0 and unexpected == 0, "attempted": attempted,
            "failed": failed, "wrong": wrong, "unexpected": unexpected,
            "failures": sorted(failures.values(), key=lambda e: (e["op"], e["input"]))}


def run_pass(ops, speed: Speed, tracer=None):
    """Time every op and note the machine's current speed with it; check
    each result outside the timed window."""
    latencies, refs, outcomes = [], [], []
    clock = time.perf_counter
    for _ in range(3):
        speed.sample()
    for i, op in enumerate(ops):
        if clock() >= speed.due:
            speed.sample()
        if tracer is not None:
            tracer.op = i
        error = result = None
        start = clock()
        try:
            result = op.fn()
        except Exception as exc:  # every op failure is data, never fatal
            error = exc
        latencies.append(clock() - start)
        refs.append(speed.current())
        if tracer is not None:  # the checks' own calls are not the program's
            tracer.recording = False
        outcomes.append(outcome(op, error, result))
        if tracer is not None:
            tracer.recording = True
    return latencies, refs, outcomes


def interpreter_probes(repeats: int = 5) -> dict:
    """Cold costs of the CLI: bare interpreter, ``import ctxlab.cli``, numpy."""
    env = workloads.cli_env()

    def timed(code):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             env=env, timeout=60, check=True)
        return time.perf_counter() - start, out.stdout

    interp = statistics.median(timed("pass")[0] for _ in range(repeats))
    imp = statistics.median(timed("import ctxlab.cli")[0] for _ in range(repeats))
    _, out = timed("import sys, ctxlab.cli; print(int('numpy' in sys.modules))")
    return {"interpreter_s": interp, "import_s": imp - interp,
            "numpy_loaded": int(out.strip())}


def layer_metrics(tracer: Tracer, ops, traced_lat, untraced_walls, traced_wall,
                  ref_s: float, workload: str) -> dict:
    """Per-layer numbers of the one traced pass (plus traced set-up)."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    m: dict[str, float] = {}
    for mod, fn in (("polytope", "canonical_inequality"), ("exactlp", "solve_standard"),
                    ("states", "enumerate_states"), ("logic", "validate_logic")):
        m[f"{mod}.{fn}.calls"] = calls.get(f"{mod}.{fn}", 0)
    for mod, fn in TRACED:
        m[f"{mod}.{fn}.self_s"] = self_s.get(f"{mod}.{fn}", 0.0)
        m[f"{mod}.{fn}.failed"] = tracer.failed.get(f"{mod}.{fn}", 0)
    m["polytope.facets_found"] = tracer.facets_found
    m["exactlp.calls_per_facet"] = (m["exactlp.solve_standard.calls"] / tracer.facets_found
                                    if tracer.facets_found else 0.0)
    m["exactlp.solve_standard.p50_ms"] = median(tracer.durations_ms("exactlp.solve_standard"))
    m["exactlp.lp_cells"] = tracer.lp_cells
    m["exactlp.max_bits"] = tracer.lp_max_bits
    m["polytope.facet_enumeration.hit_ratio"] = hit_ratio(tracer.cache["polytope.facet_enumeration"])
    m["states.enumerate_states.hit_ratio"] = hit_ratio(tracer.cache["states.enumerate_states"])
    m["states.states_found"] = tracer.states_found
    urn_s = self_s.get("urn.urn_simulate", 0.0)
    m["urn.draws_per_s"] = tracer.draws / urn_s if urn_s else 0.0

    # where hull time goes, by input class
    for cls, name, self_only, key in (
            ("unprojected", "polytope.canonical_inequality", False,
             "hull.unprojected.canonical_share"),
            ("projected", "polytope.facet_enumeration", True, "hull.projected.dd_share")):
        idx = {i for i, op in enumerate(ops) if op.tag == cls}
        m[key] = tracer.share(idx, sum(traced_lat[i] for i in idx), name, self_only)

    probes = interpreter_probes()
    m["cli.interpreter_s"] = probes["interpreter_s"]
    m["cli.import_s"] = probes["import_s"]
    m["cli.numpy_loaded"] = probes["numpy_loaded"]
    if workload == "cli_session":
        m["cli.command_s"] = median(traced_lat) - probes["interpreter_s"] - probes["import_s"]
    else:
        m["cli.command_s"] = 0.0
    m["trace.overhead_s"] = traced_wall - median(untraced_walls)
    m["bench.reference_ms"] = ref_s * 1e3
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    data = workloads.inputs(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps(setup_sample(args.workload, data)))
        return 0
    tracer = Tracer()
    start = time.perf_counter()
    if args.trace:
        tracer.load()
        tracer.install()
    loaded = workloads.setup(args.workload, data)
    setup_s = time.perf_counter() - start
    tracer.uninstall()
    if not tracer.originals:
        tracer.load()

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, data, loaded, workdir)
        passes = []  # (traced, latencies, refs, outcomes)
        speed = Speed()
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) == 1
            pass_start = time.perf_counter()
            workloads.clear_caches(tracer.originals)
            if traced:
                tracer.install()
            try:
                latencies, refs, outcomes = run_pass(ops, speed, tracer if traced else None)
            finally:
                tracer.uninstall()
            now = time.perf_counter()
            passes.append((traced, latencies, refs, outcomes))
            if (len(passes) == 3 if args.trace
                    else (now - begin) + (now - pass_start) > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    untraced = [p for p in passes if not p[0]]
    traced = [p for p in passes if p[0]]
    counts = tally(ops, [p[3] for p in passes])
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_in_run_s": setup_s,
        "ops_per_pass": len(ops),
        "passes": len(untraced),
        "pass_walls_s": [sum(p[1]) for p in untraced],
        "latencies_s": [x for p in untraced for x in p[1]],
        "refs_s": [x for p in untraced for x in p[2]],
        "peak_rss_mb": peak_rss_mb,
        **counts,
    }
    if args.workload == "probe_mix":
        out["repeat_share"] = workloads.repeat_share(ops)
    if args.trace:
        out["per_layer"] = layer_metrics(
            tracer, ops, traced[0][1], [sum(p[1]) for p in untraced], sum(traced[0][1]),
            statistics.median(traced[0][2]), args.workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
