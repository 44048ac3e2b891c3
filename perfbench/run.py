"""ctxlab benchmark: one seeded workload, checked answers, named metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Workloads: hull_sweep, probe_mix, states_scale, cli_session (see README.md).
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  ``--out`` appends the
full result, with the machine it ran on, as one JSON line to FILE.  The
exit code is 1, after the result is printed, when an answer was wrong or an
op raised an exception other than its known one.
Standard library only; the package is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_REPEATS = 7
# Set-up times are scaled to the speed at which worker.reference_work takes
# this long, so that setup_s stays in seconds but not with the host's speed.
NOMINAL_REF_S = 0.012
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                          text=True, timeout=timeout, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(ops_per_pass: int) -> float | None:
    """Highest ladder percentile that leaves 10 of a pass's ops beyond it;
    None when a pass is too short for any (then the slowest op is reported)."""
    fit = [p for p in TAIL_LADDER if ops_per_pass * (100 - p) / 100 >= 10]
    return fit[-1] if fit else None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def setup_seconds(samples: list[dict]) -> float:
    """Median set-up time, each sample scaled by the reference work timed
    around it in the same interpreter to NOMINAL_REF_S."""
    return statistics.median(s["setup_s"] / s["ref_s"] for s in samples) * NOMINAL_REF_S


def end_to_end(result: dict, setup_samples: list[dict]) -> tuple[dict, dict]:
    """Op timings in units of the reference work (see worker.Speed).

    The shared machine's speed swings by up to 2x within seconds; each op's
    latency divided by the reference work's duration measured just before
    it does not.  Each op's figure is its median over the run's passes;
    wall, median and tail are then taken over the fixed op list.  The same
    statistics in seconds go into the notes."""
    n = result["ops_per_pass"]
    lat, ref = result["latencies_s"], result["refs_s"]
    norm = [x / r for x, r in zip(lat, ref)]
    per_op = [statistics.median(norm[i::n]) for i in range(n)]
    raw = [statistics.median(lat[i::n]) for i in range(n)]
    p = tail_percentile(n)

    def tail(values):
        return percentile(values, p) if p is not None else max(values)

    metrics = {
        "setup_s": setup_seconds(setup_samples),
        "wall_ref": sum(per_op),
        "op_p50_ref": statistics.median(per_op),
        "op_tail_ref": tail(per_op),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "wall_s": sum(raw),
        "op_p50_ms": statistics.median(raw) * 1e3,
        "op_tail_ms": tail(raw) * 1e3,
        "reference_ms": statistics.median(ref) * 1e3,
        "samples": len(lat),
        "passes": result["passes"],
        "tail_percentile": p if p is not None else 100,
        "tail_beyond": sum(x > metrics["op_tail_ref"] for x in per_op),
        "setup_raw_s": [x["setup_s"] for x in setup_samples],
        "setup_ref_ms": [x["ref_s"] * 1e3 for x in setup_samples],
        "pass_walls_s": result["pass_walls_s"],
        "ops_failed_frac": result["failed"] / result["attempted"],
    }
    if "repeat_share" in result:
        notes["repeat_share"] = result["repeat_share"]
    return metrics, notes


def environment() -> dict:
    """Where a recorded result ran; gathered only when writing ``--out``."""
    from importlib import metadata
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=str(ROOT), timeout=10).stdout.strip()
    except OSError:
        commit = ""
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy, "commit": commit or "unknown"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append the full result as a JSON line")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ctxlab" / "__init__.py").is_file():
        return fail(f"no ctxlab sources under {ROOT / 'src'}")
    if not 1 <= args.seconds <= 120:
        return fail("--seconds must be between 1 and 120")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            result = worker(common + ["--seconds", str(args.seconds), "--trace", "1"],
                            timeout=args.seconds + 150)
            setup_samples = []
        else:
            setup_samples = [worker(common + ["--setup-only"], timeout=60)
                             for _ in range(SETUP_REPEATS)]
            result = worker(common + ["--seconds", str(args.seconds)],
                            timeout=args.seconds + 120)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        return fail(str(err))

    correct = result["correct"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "failures": result["failures"]}
    if args.trace:
        values, spec = result["per_layer"], SPEC["per_layer"]
    else:
        values, record["notes"] = end_to_end(result, setup_samples)
        spec = SPEC["end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    for key, value in record.get("notes", {}).items():
        if key not in ("setup_raw_s", "setup_ref_ms", "pass_walls_s"):
            print(f"  {key:45s} {value}")
    for f in result["failures"]:
        tag = "known" if f["known"] else "UNEXPECTED"
        print(f"  failure [{tag}] {f['op']} on {f['input']} x{f['count']}: {f['error']}")

    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    if args.out:
        record["env"] = environment()
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
