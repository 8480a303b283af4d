"""E22/E23 — chaos harness: delivery/stretch/recovery curves under faults.

E22 sweeps the ``route-drop`` scenario across per-link drop
probabilities and pins the ``route-crash`` scenario per size, recording
for each point the delivery rate *without* recovery, the delivery rate
with the bounded-retry loop, the recovery gain, and the extra rounds
the recovery cost (see :mod:`repro.chaos`).  Claims asserted:

* **zero-fault sanity** — at ``drop=0.0`` both arms deliver perfectly
  and the recovery loop never fires (the CI smoke gate);
* **recovery works** — at the highest drop rate the bounded-retry arm
  strictly beats the no-recovery arm, and crash replanning delivers
  everything whose endpoints survived.

E23 compares the two recovery arms head to head and gates the
byzantine stack:

* **erasure beats retry** — at 10% drop the erasure-coded arm delivers
  at least as much as bounded retry in strictly fewer rounds;
* **zero-fault bit-identity** — with an empty plan the erasure +
  integrity route delivers payloads bit-identical to the clean route;
* **detection gate** — ``byzantine-corrupt`` detects 100% of flips
  with checksums (and 0% without), and ``pipeline-degrade`` recovers
  the exact clean estimate.

Results land in ``BENCH_chaos.json`` at the repo root.  Smoke mode
(``REPRO_BENCH_SMOKE=1``) shrinks sizes and the sweep and writes under
``.bench_smoke/`` instead; the assertions are identical.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import numpy as np
import pytest

from repro.analysis import emit, format_table
from repro.cclique import (
    FaultPlan,
    IntegrityPolicy,
    LinkDrop,
    MessageBatch,
    route_batch_two_phase,
)
from repro.chaos import run_scenario

from conftest import artifact_path, host_fingerprint

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
SIZES = (32,) if SMOKE else (128, 256)
DROPS = (0.0, 0.1) if SMOKE else (0.0, 0.02, 0.05, 0.1)
SEED = 0
RETRIES = 4


def measure() -> Dict:
    drop_curves: List[Dict] = []
    for n in SIZES:
        for drop in DROPS:
            report = run_scenario(
                "route-drop", n=n, seed=SEED, drop=drop, retries=RETRIES
            )
            drop_curves.append(
                {
                    "n": n,
                    "drop": drop,
                    "delivery_no_recovery": report.score[
                        "delivery_no_recovery"
                    ],
                    "delivery_recovered": report.score["delivery_rate"],
                    "recovery_gain": report.score["recovery_gain"],
                    "rounds_to_recovery": report.score["rounds_to_recovery"],
                    "retries_used": report.score["retries_used"],
                    "perfect": report.score["perfect"],
                }
            )
    crash_points: List[Dict] = []
    for n in SIZES:
        report = run_scenario("route-crash", n=n, seed=SEED)
        crash_points.append(
            {
                "n": n,
                "crashed_node": report.score["crashed_node"],
                "delivery_no_recovery": report.score["delivery_no_recovery"],
                "delivery_recovered": report.score["delivery_rate"],
                "recovery_gain": report.score["recovery_gain"],
                "deliverable_rate": report.score["deliverable_rate"],
            }
        )
    return {"drop_curves": drop_curves, "crash_points": crash_points}


def _workload(n: int, seed: int, load: int = 4) -> MessageBatch:
    rng = np.random.default_rng((seed, n, load))
    src = np.tile(np.arange(n, dtype=np.int64), load)
    dst = np.concatenate([rng.permutation(n) for _ in range(load)])
    payload = np.arange(load * n, dtype=np.float64).reshape(-1, 1) + 0.5
    return MessageBatch(src=src, dst=dst, payload=payload)


def measure_e23() -> Dict:
    """Retry vs erasure at 10% drop, plus the byzantine scenario gates."""
    recovery_points: List[Dict] = []
    for n in SIZES:
        batch = _workload(n, SEED)
        plan = FaultPlan((LinkDrop(probability=0.1),), seed=SEED)
        retry_d, retry_s = route_batch_two_phase(
            batch, n, bandwidth_words=4, faults=plan, max_retries=RETRIES + 2
        )
        erasure_d, erasure_s = route_batch_two_phase(
            batch, n, bandwidth_words=4, faults=plan,
            max_retries=RETRIES + 2, recovery="erasure",
        )
        # Zero-fault bit-identity: the empty plan through the erasure +
        # integrity arm must deliver exactly the clean route's payloads.
        clean_d, _ = route_batch_two_phase(batch, n, bandwidth_words=4)
        coded_d, coded_s = route_batch_two_phase(
            batch, n, bandwidth_words=4, faults=FaultPlan((), seed=SEED),
            recovery="erasure", integrity=IntegrityPolicy(),
        )
        clean_order = np.lexsort((clean_d.payload[:, 0], clean_d.dst))
        coded_order = np.lexsort((coded_d.payload[:, 0], coded_d.dst))
        bit_identical = (
            len(coded_d) == len(clean_d)
            and np.array_equal(
                clean_d.dst[clean_order], coded_d.dst[coded_order]
            )
            and np.array_equal(
                clean_d.payload[clean_order], coded_d.payload[coded_order]
            )
        )
        recovery_points.append(
            {
                "n": n,
                "drop": 0.1,
                "attempted": len(batch),
                "retry_delivered": len(retry_d),
                "retry_rounds": retry_s.rounds,
                "retry_retries": retry_s.retries,
                "erasure_delivered": len(erasure_d),
                "erasure_rounds": erasure_s.rounds,
                "erasure_retries": erasure_s.retries,
                "erasure_reconstructed": erasure_s.reconstructed,
                "erasure_parity_words": erasure_s.parity_words,
                "zero_fault_bit_identical": bit_identical,
                "zero_fault_reconstructed": coded_s.reconstructed,
            }
        )
    byzantine_points: List[Dict] = []
    pipeline_points: List[Dict] = []
    for n in SIZES:
        report = run_scenario("byzantine-corrupt", n=n, seed=SEED)
        byzantine_points.append(
            {
                "n": n,
                "detection_rate": report.score["detection_rate"],
                "detection_rate_baseline": report.score[
                    "detection_rate_baseline"
                ],
                "payload_integrity_baseline": report.score[
                    "payload_integrity_baseline"
                ],
                "payload_integrity": report.score["payload_integrity"],
                "payload_integrity_erasure": report.score[
                    "payload_integrity_erasure"
                ],
                "delivery_rate": report.score["delivery_rate"],
            }
        )
        report = run_scenario("pipeline-degrade", n=n, seed=SEED)
        pipeline_points.append(
            {
                "n": n,
                "edge_delivery_no_recovery": report.score[
                    "delivery_no_recovery"
                ],
                "edge_delivery_recovered": report.score["delivery_rate"],
                "stretch_degradation": report.score["stretch_degradation"],
                "stretch_recovered": report.score["stretch_recovered"],
                "reconstructed": report.score["reconstructed"],
                "recovered": report.score["recovered"],
            }
        )
    return {
        "recovery_points": recovery_points,
        "byzantine_points": byzantine_points,
        "pipeline_points": pipeline_points,
    }


@pytest.fixture(scope="module")
def chaos_records() -> Dict:
    return measure()


@pytest.fixture(scope="module")
def byzantine_records() -> Dict:
    return measure_e23()


def test_zero_fault_scenario_is_perfect(chaos_records):
    """CI smoke gate: no faults => perfect delivery, no retries."""
    for point in chaos_records["drop_curves"]:
        if point["drop"] == 0.0:
            assert point["delivery_no_recovery"] == 1.0
            assert point["delivery_recovered"] == 1.0
            assert point["recovery_gain"] == 0.0
            assert point["retries_used"] == 0
            assert point["perfect"] is True


def test_recovery_strictly_improves_under_faults(chaos_records):
    """At the highest drop rate the retry loop must strictly help."""
    worst = max(DROPS)
    for point in chaos_records["drop_curves"]:
        if point["drop"] == worst:
            assert point["delivery_no_recovery"] < 1.0
            assert (
                point["delivery_recovered"] > point["delivery_no_recovery"]
            )
    for point in chaos_records["crash_points"]:
        assert point["recovery_gain"] > 0.0
        assert point["deliverable_rate"] == 1.0


def test_erasure_beats_retry_at_ten_percent_drop(byzantine_records):
    """E23 gate: erasure delivers >= retry in strictly fewer rounds."""
    for point in byzantine_records["recovery_points"]:
        assert point["erasure_delivered"] >= point["retry_delivered"]
        assert point["erasure_rounds"] < point["retry_rounds"]
        assert point["erasure_reconstructed"] > 0


def test_zero_fault_erasure_is_bit_identical(byzantine_records):
    """Empty plan through erasure + integrity == the clean route."""
    for point in byzantine_records["recovery_points"]:
        assert point["zero_fault_bit_identical"] is True
        assert point["zero_fault_reconstructed"] == 0


def test_byzantine_detection_is_total(byzantine_records):
    """Checksums flag 100% of flips; the baseline flags none."""
    for point in byzantine_records["byzantine_points"]:
        assert point["detection_rate"] == 1.0
        assert point["detection_rate_baseline"] == 0.0
        assert point["payload_integrity_baseline"] < 1.0
        assert point["payload_integrity"] == 1.0
        assert point["payload_integrity_erasure"] == 1.0


def test_pipeline_recovers_clean_estimate(byzantine_records):
    """Erasure-coded dissemination restores the exact clean estimate."""
    for point in byzantine_records["pipeline_points"]:
        assert point["edge_delivery_no_recovery"] < 1.0
        assert point["edge_delivery_recovered"] == 1.0
        assert point["recovered"] is True
        assert point["stretch_recovered"] == 1.0


def test_chaos_curves(chaos_records, byzantine_records, results_sink, benchmark):
    """E22/E23: emit the delivery/recovery tables and BENCH_chaos.json."""
    rows = []
    for p in chaos_records["drop_curves"]:
        rows.append(
            (
                p["n"],
                f"{p['drop']:.2f}",
                f"{p['delivery_no_recovery']:.3f}",
                f"{p['delivery_recovered']:.3f}",
                f"{p['recovery_gain']:+.3f}",
                p["rounds_to_recovery"],
                p["retries_used"],
            )
        )
    for p in chaos_records["crash_points"]:
        rows.append(
            (
                p["n"],
                "crash",
                f"{p['delivery_no_recovery']:.3f}",
                f"{p['delivery_recovered']:.3f}",
                f"{p['recovery_gain']:+.3f}",
                "-",
                "-",
            )
        )
    table = format_table(
        ["n", "fault", "no-recovery", "recovered", "gain",
         "extra rounds", "retries"],
        rows,
        title="E22 — chaos harness: delivery under drops/crashes, with and "
        "without bounded-retry recovery (claim: zero-fault perfect, "
        "recovery strictly improves delivery)",
    )
    emit(table, sink_path=results_sink)

    e23_rows = []
    for p in byzantine_records["recovery_points"]:
        e23_rows.append(
            (
                p["n"],
                f"{p['retry_delivered']}/{p['attempted']}",
                p["retry_rounds"],
                f"{p['erasure_delivered']}/{p['attempted']}",
                p["erasure_rounds"],
                p["erasure_reconstructed"],
                "yes" if p["zero_fault_bit_identical"] else "NO",
            )
        )
    e23_table = format_table(
        ["n", "retry", "rounds", "erasure", "rounds", "reconstructed",
         "zero-fault identical"],
        e23_rows,
        title="E23 — recovery arms at 10% drop: bounded retry vs XOR-parity "
        "erasure coding (claim: erasure delivers >= retry in strictly "
        "fewer rounds; empty-plan erasure is bit-identical to clean)",
    )
    emit(e23_table, sink_path=results_sink)

    payload = {
        "experiment": "E22-chaos",
        "sizes": list(SIZES),
        "drops": list(DROPS),
        "seed": SEED,
        "retries": RETRIES,
        "smoke": SMOKE,
        "host": host_fingerprint(),
        "drop_curves": chaos_records["drop_curves"],
        "crash_points": chaos_records["crash_points"],
        "e23_recovery_points": byzantine_records["recovery_points"],
        "e23_byzantine_points": byzantine_records["byzantine_points"],
        "e23_pipeline_points": byzantine_records["pipeline_points"],
    }
    with open(artifact_path("BENCH_chaos.json"), "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2)
    assert payload == json.loads(json.dumps(payload, allow_nan=False))

    benchmark.pedantic(
        lambda: run_scenario(
            "route-drop", n=SIZES[0], seed=SEED, drop=max(DROPS),
            retries=RETRIES,
        ),
        rounds=1,
        iterations=1,
    )
