"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> [spans.tsv]

Imports the library from src/ next to this directory, generates the inputs,
runs the timed job, checks every result against perfbench/reference.py and
prints one JSON line with timings, exact counters, failures and the sha256
of the canonical output.  run.py starts one of these per repetition and
aggregates them.

Times are scaled to the host's reference speed (speed.py); the raw set-up
and wall times are reported beside them.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 8  # calibration samples on each side of the set-up


def import_library():
    """Import ramseychoice from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ramseychoice
    import ramseychoice.cli  # noqa: F401  (the grid workload and the tracer need it)

    where = Path(ramseychoice.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"ramseychoice was imported from {where}, not from {SRC}")
    return ramseychoice


def _cache_counts(caches) -> dict[str, list[int]]:
    infos = {name: fn.cache_info() for name, fn in caches.items()}
    return {name: [info.hits, info.misses] for name, info in infos.items()}


def main(argv) -> int:
    name, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    spans_path = argv[4] if len(argv) > 4 else None

    meter = speed.Speedometer()
    meter.sample(SETUP_SAMPLES)
    start = time.perf_counter()
    rc = import_library()
    items = workloads.generate(name, seed)
    end = time.perf_counter()
    meter.sample(SETUP_SAMPLES)
    setup_raw = end - start

    caches = {"is_prime": rc.numtheory.is_prime, "allowed_contributions": rc.decomposition.allowed_contributions}
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(rc)
    before = _cache_counts(caches)
    wall_raw, latencies, starts, results, extra = workloads.run(name, rc, items, meter)
    after = _cache_counts(caches)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scaled = [t * meter.scale(t0, t0 + t) for t, t0 in zip(latencies, starts)]
    job_scale = meter.scale(starts[0], starts[-1] + latencies[-1])
    failures, canonical = workloads.check(items, results, extra)
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    cache_deltas = {k: [a - b for a, b in zip(after[k], before[k])] for k in caches}
    out = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "setup_s": setup_raw * meter.scale(start, end),
        "wall_s": sum(scaled) + (wall_raw - sum(latencies)) * job_scale,
        "peak_rss_mib": peak_rss_mib,
        "latencies_s": scaled,
        "raw": {"setup_s": setup_raw, "wall_s": wall_raw, "calibration_s": statistics.median(meter.durations)},
        "exact": {
            "items": workloads.item_counts(items),
            "caches": cache_deltas,
            "digest": hashlib.sha256(encoded).hexdigest(),
        },
        "failed": len(failures),
        "failures": sorted(failures.values())[:20],
    }
    if tracer is not None:
        summary = tracer.summary()
        out["per_layer"] = tracing.per_layer(summary, cache_deltas, [r.value for r in rc.Recipe])
        out["trace_counts"] = {k: summary[k] for k in ("calls", "counts", "site_calls", "spans")}
        if spans_path:
            tracer.write_spans(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
