"""Check a traced benchmark run's work counts against tests/bench_counts.json.

    python3 bench/bench.py --workload sweep_kkt --seed 1 --seconds 0 --trace 1 \
        | tail -n 1 | python3 tests/check_bench_counts.py sweep_kkt

reads the run's last line (its JSON result) on standard input and exits 1,
printing ``metric: pinned -> measured`` for each difference, unless every
pinned value is equal: every per-layer call count, the closed-form
multiplier accepts, the outer iterations, the oracle's worst gap and the
delivery XOR bytes of seed 1.  A change that does not mean to change the
work done leaves them equal; one that does updates the file and says why.
"""

import json
import sys
from pathlib import Path

PINS = Path(__file__).with_name("bench_counts.json")

if __name__ == "__main__":
    pinned = json.loads(PINS.read_text())[sys.argv[1]]
    metrics = json.loads(sys.stdin.read())["metrics"]
    diffs = [f"{key}: {want} -> {metrics.get(key, {}).get('value')}"
             for key, want in pinned.items() if metrics.get(key, {}).get("value") != want]
    print("\n".join(diffs or ["work counts equal the pins"]))
    sys.exit(1 if diffs else 0)
