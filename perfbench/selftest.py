"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced, under
seed 0 and seed 1, with ``--size small`` (solve_96h on the 48 h fixture, a
2 x 2 sweep, year_roundtrip tiled 7 times). Each run must pass the
correctness gate and emit exactly the metrics BENCHMARK.json names, with
their units. Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, seed: int, trace: int) -> None:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "small"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} seed={seed} trace={trace}"
    if done.returncode != 0:
        raise SystemExit(f"{where}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{where}: correctness gate failed\n{done.stdout}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise SystemExit(f"{where}: metrics {got}, expected {wanted}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise SystemExit(f"{where}: {name} is not a number")
    print(f"ok  {where}: {result['attempted']} ops")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for seed in (0, 1):
            for trace in (0, 1):
                check_run(spec, workload["name"], seed, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
