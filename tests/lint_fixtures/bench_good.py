"""Known-good benchmark corpus (linted under a virtual benchmarks/ path).

Mirrors the shipped benchmark shape: artifact + tag registered in
run_smoke.py's SUITES table.
"""

import json

ARTIFACT = "BENCH_query.json"
PAYLOAD = {"experiment": "E20-query", "records": [{"n": 64}]}


def emit():
    with open(ARTIFACT, "w", encoding="utf-8") as sink:
        json.dump(PAYLOAD, sink)
