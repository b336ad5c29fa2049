"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json once at a tiny size, traced and
untraced, and checks that each emits exactly its metric names with their
units and that its outputs check out.  Also runs the memory-guard workload
and checks that the benchmark refuses to run without the program sources.

    python3 perfbench/smoke.py        # exit code 0 when everything passes
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "1", "--seconds", "0", "--tiny"]


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None, dict | None]:
    out = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                         timeout=180)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return out.returncode, None, None
    return out.returncode, json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_result(result: dict, expected: list[dict], label: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: correct is {result.get('correct')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"{label}: attempted {result.get('attempted')}")
    if not isinstance(result.get("failed"), int):
        errors.append(f"{label}: failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        errors.append(f"{label}: missing {sorted(set(want) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            errors.append(f"{label}: {name} unit {entry.get('unit')!r}, want {unit!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{label}: {name} value {value!r}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, detail, result = run(RUN + ["--workload", workload, "--trace", str(trace)])
            if result is None:
                errors.append(f"{label}: exit code {code}, no result")
                continue
            errors += check_result(result, expected, label)
            if trace == 0:
                errors += [f"{label}: {m['name']} is 0" for m in expected
                           if result["metrics"].get(m["name"], {}).get("value") == 0]
            print(f"{label}: {result['attempted']} cases, {result['failed']} failed")

    # memory guard: the cliff case fails with MemoryError and the run completes
    code, detail, result = run(RUN + ["--workload", "guard"])
    reasons = [f["reason"] for f in (detail or {}).get("failing_cases", {}).values()]
    if result is None or result["failed"] != result["attempted"] or not all(
            "MemoryError" in r for r in reasons) or not reasons:
        errors.append(f"guard: exit code {code}, failures {reasons}")
    else:
        print(f"guard: {reasons[0]}")

    # without the program's sources the benchmark must fail without a result
    bare = ROOT / ".bench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, *RUN, "--workload", "corpus"], cwd=bare,
                             capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or out.stdout.strip():
            errors.append(f"bare checkout: exit code {out.returncode}, stdout {out.stdout!r}")
        else:
            print(f"bare checkout: exit code {out.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
