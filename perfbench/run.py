"""The repository benchmark: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload {grid,oracle,large,witness,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; `all` runs the four workloads in turn and
exits with the worst exit code.  Each repetition is a new single-threaded
process (perfbench/worker.py), so the library's caches start cold and the
peak RSS belongs to that repetition alone.  Repetitions run one after
another while the next one should still end within --seconds, and at least
workloads.MIN_REPS of them.

Every time is scaled to the host's reference speed (speed.py): other
tenants of a shared host slow it by up to half for a minute or more, and
the calibration loop the worker runs between items measures by how much.
With --trace 0 the last line reports the end-to-end metrics of
BENCHMARK.json.  The latency metrics (wall_s, throughput_per_s,
item_p50_ms, item_tail_ms) are built from each item's median scaled
latency over the repetitions (see typical_job); setup_s and peak_rss_mib
are medians over the repetitions.  With --trace 1 untraced and traced
repetitions alternate; the last line reports the per-layer metrics
(medians over the traced repetitions) and trace_overhead_s, the traced
minus the untraced wall_s.  The raw, unscaled set-up and wall times go to
the records.

Every repetition checks its outputs against perfbench/reference.py.  The
exact counters (items, cache_info() deltas, traced call counts) and the
sha256 of the canonical output must repeat across the repetitions of a run;
any difference or failed check sets "correct" to false and the exit code
to 1.  A missing library or a crashed repetition exits 2 without a result.
Records go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REP_TIMEOUT_S = 150


class RepFailed(Exception):
    pass


def run_rep(workload: str, seed: int, trace: bool, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if trace else "0"]
    if spans is not None:
        cmd.append(str(spans))
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepFailed(f"repetition exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(sorted_values: list[float], q: int) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples beyond it."""
    rank = math.ceil(q / 100 * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def environment(workload: str, seed: int, seconds: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), None)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ramseychoice").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def typical_job(reps: list[dict]) -> tuple[list[float], float]:
    """Each item's median scaled latency over the repetitions, and the job
    time they add up to (plus the median remainder outside the items, such
    as the grid's to_csv).

    Every repetition runs the same items in the same order.  Scaling takes
    out the host's slow phases; the median takes out the bursts that are
    too short for the calibration samples around an item to catch.
    """
    per_item = [statistics.median(samples) for samples in zip(*(rep["latencies_s"] for rep in reps))]
    rest = statistics.median(rep["wall_s"] - sum(rep["latencies_s"]) for rep in reps)
    return per_item, sum(per_item) + rest


def end_to_end(workload: str, reps: list[dict]) -> dict[str, float]:
    per_item, wall = typical_job(reps)
    tail, beyond = percentile(sorted(per_item), workloads.TAIL_PERCENTILE[workload])
    if beyond < 10:
        raise RepFailed(f"only {beyond} items beyond p{workloads.TAIL_PERCENTILE[workload]}")
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "wall_s": wall,
        "throughput_per_s": len(per_item) / wall,
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": tail * 1e3,
        "peak_rss_mib": statistics.median(rep["peak_rss_mib"] for rep in reps),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["per_layer"]
    out = {name: statistics.median(rep["per_layer"][name] for rep in traced) for name in names}
    out["trace_overhead_s"] = typical_job(traced)[1] - typical_job(untraced)[1]
    return out


def consistency(reps: list[dict]) -> list[str]:
    """Exact counters and output digests must repeat across repetitions."""
    problems = []
    first = reps[0]
    for rep in reps[1:]:
        if rep["exact"] != first["exact"]:
            problems.append("exact counters or output digest differ between repetitions")
        if rep["trace"] and first["trace"] and rep["trace_counts"]["calls"] != first["trace_counts"]["calls"]:
            problems.append("traced call counts differ between repetitions")
    return sorted(set(problems))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max([main(["--workload", name, *rest]) for name in workloads.NAMES])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics_spec}
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans_{args.workload}_seed{args.seed}.tsv" if args.trace else None

    untraced, traced = [], []
    min_reps = 2 if args.trace else workloads.MIN_REPS
    start = time.monotonic()
    try:
        while True:
            untraced.append(run_rep(args.workload, args.seed, False, None))
            if args.trace:
                traced.append(run_rep(args.workload, args.seed, True, spans))
            elapsed = time.monotonic() - start
            # Start another round only if it should end within --seconds.
            if len(untraced) >= min_reps and elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
        values = per_layer(untraced, traced) if args.trace else end_to_end(args.workload, untraced)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    reps = untraced + traced
    problems = consistency(reps)
    failed = sum(rep["failed"] for rep in reps)
    attempted = sum(len(rep["latencies_s"]) for rep in reps)
    record = {
        "environment": environment(args.workload, args.seed, args.seconds),
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "tail_percentile": workloads.TAIL_PERCENTILE[args.workload],
        "exact": untraced[0]["exact"],
        "failed_ratio": failed / attempted,
        "failures": sorted({f for rep in reps for f in rep["failures"]})[:20] + problems,
        "per_rep": [{k: rep[k] for k in ("trace", "setup_s", "wall_s", "peak_rss_mib", "raw")} for rep in reps],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "raw_medians": {k: statistics.median(rep["raw"][k] for rep in untraced) for k in untraced[0]["raw"]},
    }
    if args.trace:
        record["trace_counts"] = traced[0]["trace_counts"]
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  repetitions {record['repetitions']}  "
          f"tail p{record['tail_percentile']}")
    print(f"python {env['python']}  nproc {env['nproc']}  cpu {env['cpu']}  commit {env['commit']}  "
          f"source {env['source_sha256'][:16]}")
    print(f"items {record['exact']['items']}  caches {record['exact']['caches']}")
    print(f"digest {record['exact']['digest']}")
    print(f"failed_ratio {record['failed_ratio']} ({failed}/{attempted})")
    for problem in record["failures"]:
        print(f"FAILED {problem}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("unscaled medians " + "  ".join(f"{k} {v:.6g} s" for k, v in record["raw_medians"].items()))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
