#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 bench/selftest.py

Runs each workload untraced and traced on small inputs and checks that every
metric BENCHMARK.json names comes out with its unit, that every query is
answered correctly, and that the benchmark refuses to run without the
library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def check_metrics(result: dict, wanted: list[dict], label: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} queries failed")
    got = result["metrics"]
    for metric in wanted:
        name = metric["name"]
        if name not in got:
            problems.append(f"{label}: metric {name} missing")
        elif got[name]["unit"] != metric["unit"]:
            problems.append(f"{label}: {name} in {got[name]['unit']}, expected {metric['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_refuses_without_sources() -> list[str]:
    """The benchmark copied without src/ must exit non-zero and print no result."""
    bare = run.BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "planar_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.load_library()
    import workloads

    tiny = {
        "sphere_ladder": {"ladder": ((6, 2), (8, 3))},
        "random_sparse": {"sizes": (20, 22, 25, 28)},
        "planar_desk": {
            "planar": ((5, 6), (6, 8)),
            "nonplanar": (("K3,3", 1, 0), ("K3,3", 2, 1)),
            "enum": workloads.ENUM_TYPES[:2],
        },
    }
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        workload = workloads.WORKLOADS[name](1, **tiny[name])
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, _, _, _ = run.measure(workload, 0, trace)
            problems += check_metrics(result, wanted, f"{name} trace={int(trace)}")
    problems += check_refuses_without_sources()
    for problem in problems:
        print(problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
