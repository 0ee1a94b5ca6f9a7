"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

The exact counters and output digests must repeat across fresh processes
with the same seed, tracing must not change them, and the reference checks
must reject wrong outputs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _worker(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if trace else "0"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_same_seed_repeats_exactly_with_and_without_tracing(workload):
    first, second, traced = _worker(workload, 7, False), _worker(workload, 7, False), _worker(workload, 7, True)
    assert first["failed"] == second["failed"] == traced["failed"] == 0
    assert first["exact"] == second["exact"] == traced["exact"]
    assert len(first["latencies_s"]) == sum(first["exact"]["items"].values())
    calls, sites = traced["trace_counts"]["calls"], traced["trace_counts"]["site_calls"]
    # Calls through re-exported names and the captured recipe tuple are seen.
    assert calls["certificates.build_certificate"] > 0
    assert sites["certificates->decomposition.blocks"] > 0
    assert any(name.startswith("certificates.recipe_") for name in calls)
    if workload == "grid":
        assert calls["cli.to_csv"] == 1


def test_seed_decides_the_inputs():
    for name in workloads.NAMES:
        assert workloads.generate(name, 3) == workloads.generate(name, 3)
    for name in ("grid", "large"):
        assert workloads.generate(name, 3) != workloads.generate(name, 4)
    for name in ("oracle", "witness"):  # same work, seeded order
        assert sorted(workloads.generate(name, 3)) == sorted(workloads.generate(name, 4))


def test_large_strata_hit_their_mechanisms():
    items = workloads.generate("large", 5)
    assert workloads.item_counts(items) == {k: v[0] for k, v in workloads.LARGE_STRATA.items()}
    for kind, m, n in items:
        assert 2 <= m < n
        if kind == "odd":
            assert n % 2 == 1
        elif kind == "divisor":
            assert n % 6 == 0 and m % 2 == 0 and m % 3 != 0
        else:
            assert n & (n - 1) == 0 and m % 2 == 0


def test_certificate_check_rejects_wrong_certificates():
    assert reference.check_certificate(3, 7, (7,)) is None
    assert reference.check_certificate(6, 9, (7, 2)) is None
    assert reference.check_certificate(2, 4, (2, 2)) is not None  # 2 is reachable
    assert reference.check_certificate(3, 8, (7,)) is not None  # wrong sum
    assert reference.check_certificate(3, 7, (6, 1)) is not None  # part below 2
    assert reference.check_certificate(4, 30000, (3,) * 10000) is None
    assert reference.check_certificate(6, 30000, (3,) * 10000) is not None


def test_classification_check_uses_the_theorem():
    assert reference.check_classification(5, 5, "provable", "diagonal", None) is None
    assert reference.check_classification(2, 4, "provable", "rc24", None) is None
    assert reference.check_classification(3, 6, "provable", "rc24", None) is not None
    assert reference.check_classification(2, 4, "not_provable", "certificate", [4]) is not None


def test_cyclic_model_check_rejects_a_broken_selection():
    import ramseychoice as rc

    c = rc.build_cyclic_model(2, 1, rc.Decomposition((3,)))
    args = (2, 1, (3,), c.model.domain, dict(c.model.sel), c.sigma)
    assert reference.check_cyclic_model(*args) is None
    broken = dict(c.model.sel)
    P = (1, 2)
    broken[P] = P[0] if broken[P] == P[1] else P[1]
    assert reference.check_cyclic_model(*args[:4], broken, c.sigma) is not None


def test_independent_counts_match_known_values():
    assert [reference.burnside_class_count(2, k) for k in (2, 3, 4)] == [1, 2, 4]  # tournaments
    assert reference.gcd_claim_counts(4) == 2
    import ramseychoice as rc

    assert reference.burnside_class_count(3, 5) == len(rc.catalog_models(3, 5))
    ok, census = rc.verify_rc24()
    assert ok and all(census[k] == v for k, v in reference.rc24_census().items())


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()

    def inner(x):
        return sum(range(x))

    traced_inner = tracer.timed(inner, "toy.inner", "toy")

    def outer(x):
        return traced_inner(x) + traced_inner(2 * x)

    tracer.timed(outer, "toy.outer", "toy")(20000)
    root = list(tracer.span_parent).index(-1)
    duration = tracer.span_end[root] - tracer.span_start[root]
    summary = tracer.summary()
    assert summary["calls"] == {"toy.inner": 2, "toy.outer": 1}
    assert sum(summary["self_s"].values()) == pytest.approx(duration, rel=1e-9)
    assert sorted(tracer.span_parent) == [-1, tracer.span_id[root], tracer.span_id[root]]


def test_speed_scale_takes_the_median_of_samples_near_the_interval():
    meter = speed.Speedometer()
    slow = 2 * speed.REFERENCE_S
    meter.times = [0.0, 1.0, 1.1, 1.2, 5.0]
    meter.durations = [9.0, slow, 4 * speed.REFERENCE_S, slow, 9.0]
    assert meter.scale(1.05, 1.15) == pytest.approx(0.5)  # three samples within WINDOW_S
    assert meter.scale(4.0, 4.0) == pytest.approx(speed.REFERENCE_S / 9.0)  # nearest sample only


def test_job_wall_leaves_out_calibration():
    import ramseychoice as rc

    items = workloads.generate("witness", 1)[:40]
    meter = speed.Speedometer()
    wall, latencies, starts, results, _ = workloads.run("witness", rc, items, meter)
    assert len(latencies) == len(starts) == len(results) == len(items)
    inside = sum(meter.durations[1:-1])  # samples taken between items
    assert len(meter.durations) > 2
    assert sum(latencies) <= wall < sum(latencies) + inside
