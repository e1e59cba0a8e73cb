"""Self-test of the benchmark harness at toy sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload shape with small genera (13 in place of 31, 7 in place
of 11) in both trace modes and checks that every metric named in
BENCHMARK.json is printed with its unit, that the gates pass, that a
deliberately wrong pinned value makes a gate fail, and that the benchmark
refuses to run without the package source.  Exits 0 when all of that holds.
"""

import json
import os
import shutil
import subprocess
import sys

import run
from plans import CERTS

SMALL = {"warm_y": 8, "cold_probes": 2, "cli_calls": 2, "sample_genera": [13],
         "sample_count": 16, "ranks_per_genus": 4, "class_genus": 6,
         "pullback_genera": [4, 5],
         "reps": {"warm": 2, "stream": 2, "samples": 2, "identity": 1,
                  "classes": 2, "pullback": 2}}
TOY = {
    "exact-g31": dict(SMALL, cert_genus=13, stream_genus=6),
    "atlas-stream": dict(SMALL, cert_genus=7, stream_genus=7),
    "sample-classes": dict(SMALL, cert_genus=6, stream_genus=6,
                           sample_genera=[13, 14], sample_count=40),
}


def _declared(section: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def check_metrics(problems: list, label: str, result: dict, section: str) -> None:
    metrics = result["metrics"]
    for name, unit in _declared(section).items():
        entry = metrics.get(name)
        if entry is None:
            problems.append(f"{label}: metric {name} missing")
        elif entry["unit"] != unit or not isinstance(entry["value"], (int, float)):
            problems.append(f"{label}: metric {name} printed as {entry}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: gates did not pass: {result}")


def check_wrong_pin_fails(problems: list) -> None:
    certs = dict(CERTS)
    status, feasible, margin, witness = certs[(13, False)]
    certs[(13, False)] = (status, feasible, "1/" + margin.split("/")[1], witness)
    result, _, messages = run.run_benchmark("exact-g31", 1, 1, False, TOY, certs)
    if result["correct"] or result["failed"] < 1 or not messages:
        problems.append("a wrong pinned margin did not fail a gate")


def check_refuses_without_source(problems: list) -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = os.path.join(run.ROOT, ".perfbench_runs", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-g31",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("the benchmark ran without the package source")


def main() -> int:
    problems = []
    for workload in TOY:
        for trace in (False, True):
            result, _, _ = run.run_benchmark(workload, 1, 1, trace, TOY)
            check_metrics(problems, f"{workload} trace={int(trace)}", result,
                          "per_layer" if trace else "end_to_end")
    check_wrong_pin_fails(problems)
    check_refuses_without_source(problems)
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
