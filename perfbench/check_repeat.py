"""Check that the backlog's deterministic counts repeat exactly per seed.

Runs ``run.py --workload backlog --trace 1`` twice for each seed and
compares the counts that depend only on the inputs: virtual-time queue
waits, scheduler work per job, dispatch rounds per job and journal
records per job.  Exits 1 and names the metric if any of them drifts
between two runs of one seed, or if a run reports a failure.  The
default seeds include one (9973) never used while the benchmark was
tuned.

    python3 perfbench/check_repeat.py [--seeds 1,2,9973] [--seconds 3]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POLICIES = ("fifo", "priority", "backfill")
COUNTS = tuple(
    f"{p}.{m}"
    for p in POLICIES
    for m in ("wait_p99_s", "scheduler.examined_per_job", "scheduler.probes_per_job",
              "distributor.rounds_per_job")
) + ("journal.records_per_job",)


def _run(seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "backlog",
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1,2,9973")
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    drift = 0
    for seed in (int(s) for s in args.seeds.split(",")):
        first, second = _run(seed, args.seconds), _run(seed, args.seconds)
        for result in (first, second):
            if not result["correct"]:
                print(f"seed {seed}: run reported {result['failed']} failures")
                drift += 1
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                print(f"seed {seed}: {name} drifted {a!r} -> {b!r}")
                drift += 1
        print(f"seed {seed}: " + " ".join(
            f"{n}={first['metrics'][n]['value']:.6g}" for n in COUNTS))
    print("deterministic counts repeat" if not drift else f"{drift} drifts")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
