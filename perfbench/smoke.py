"""Smoke check of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/smoke.py

Runs run.py with --smoke for each workload in BENCHMARK.json, with tracing
off and on, and checks that each run exits 0, passes its correctness checks
and prints exactly the metrics BENCHMARK.json names for that mode, each with
its declared unit and a finite value.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"attempted={result.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    if set(printed) != set(declared):
        errors.append(f"missing {sorted(set(declared) - set(printed))}, "
                      f"undeclared {sorted(set(printed) - set(declared))}")
    for name, unit in declared.items():
        entry = printed.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            errors.append(f"{name}: unit {entry.get('unit')!r}, declared {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not errors else 'FAIL'}")
            for err in errors:
                print(f"  {err}")
            failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
