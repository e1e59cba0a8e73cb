"""The stratacert benchmark.

    python3 perfbench/run.py --workload exact-g31 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each workload pass runs in a fresh,
single-threaded interpreter (``perfbench/child.py``) against the checkout's
``src``, so the certify engine is as cold as every ``stratacert certify``
invocation sees it.  ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` runs the pass once untraced and once with a span around every call and
prints the per-layer metrics, including the tracing overhead.  The last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run measures its workload's fixed work and then keeps timing fresh
imports of the package (``setup_s``) until ``--seconds`` have passed.
Inputs (warm-sweep y values, atlas ranks) come from ``--seed``.  Spans and
a record of the run go to ``.perfbench_runs/`` in the checkout.
"""

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from gates import Tally, check_cold, check_pass
from plans import ATLAS_COUNTS, CERTS, WORKLOADS, make_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
RUN_LIMIT_S = 170  # every run must end within 180 s
MIN_SETUP_PROBES = 9
SETUP_PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")


class BenchError(Exception):
    """The run could not be measured; no result is printed."""


ADDR_NO_RANDOMIZE = 0x0040000
PERSONALITY_QUERY = 0xFFFFFFFF


def _fixed_layout() -> None:
    """Turn off address-space randomization for the child about to exec.

    With it on, each fresh interpreter lands its heap at another address,
    and the same pass can take 15 % more or less time from one process to
    the next.  Where the host forbids the change, the child simply keeps
    the randomized layout.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(PERSONALITY_QUERY)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv: list, stdin: str, deadline: float):
    """Run one child to completion; returns (stdout, wall seconds)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before a child could start")
    start = time.perf_counter()
    try:
        # on timeout, run() kills the child and waits for it before raising
        proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=remaining,
                              preexec_fn=_fixed_layout)
    except subprocess.TimeoutExpired:
        raise BenchError("run time limit reached inside a child") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout, wall


def _child(request: dict, deadline: float):
    """One pass; its wall time, less the time spent sampling host speed, is
    scaled by the pass's own speed samples."""
    stdout, wall = _spawn([sys.executable, CHILD], json.dumps(request), deadline)
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, (wall - result["speed"]["handler_s"]) * result["mean_scale"]


def _setup_probes(until: float, deadline: float) -> list:
    """Scaled import times of the package, each in a fresh interpreter: at
    least MIN_SETUP_PROBES, more until ``until``."""
    times = []
    while len(times) < MIN_SETUP_PROBES or time.monotonic() < until:
        stdout, _ = _spawn([sys.executable, SETUP_PROBE], "", deadline)
        times.append(json.loads(stdout)["scaled_s"])
    return times


# -- metrics -----------------------------------------------------------------


def _durations(spans: dict, key: str) -> list:
    return spans[key]["durations"]


def _median(spans: dict, key: str) -> float:
    return statistics.median(_durations(spans, key))


def _self(spans: dict, name: str) -> float:
    """Self seconds of every span called ``name``, whatever its tag."""
    return sum(entry["self"] for key, entry in spans.items()
               if key == name or key.startswith(name + "["))


def warm_per_y(spans: dict, runs: int) -> list:
    """Per seeded y: the mean of its off and on warm certificate times,
    each the median over the runs of the warm sweep.  Averaging the two
    modes keeps the distribution unimodal, so its median does not sit in
    the gap between an off cluster and an on cluster."""
    per_mode = []
    for mode in ("off", "on"):
        durations = _durations(spans, f"certify.certify_exact[warm-{mode}]")
        n = len(durations) // runs
        per_mode.append([statistics.median(durations[i::n]) for i in range(n)])
    return [(off + on) / 2 for off, on in zip(*per_mode)]


def end_to_end_metrics(main: dict, wall: float, probes: list, setup: list) -> dict:
    spans = main["spans"]
    cold = {mode: statistics.median(
        _durations(r["spans"], f"certify.certify_exact[cold-{mode}]")[0]
        for r in [main] + probes) for mode in ("off", "on")}
    warm = warm_per_y(spans, main["outputs"]["reps"]["warm"])
    # repeated stages count with their median run
    identity_s = (_median(spans, "graphs.enumerate_level_graphs[stream]")
                  + _median(spans, "stage.samples") + _median(spans, "stage.identity"))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mb": main["peak_rss_mb"],
        "cert_cold_off_s": cold["off"],
        "cert_cold_on_s": cold["on"],
        "cert_warm_ms_p50": statistics.median(warm) * 1e3,
        "cert_warm_ms_p90": statistics.quantiles(warm, n=10)[8] * 1e3,
        "stream_cert_s": _median(spans, "stage.stream"),
        "identity_graphs_per_s": main["outputs"]["identity"]["checked"] / identity_s,
        "class_build_s": _median(spans, "stage.classes"),
        "pullback_check_s": _median(spans, "stage.pullback"),
    }


def per_layer_metrics(traced: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Self times per run of the stage that makes the calls."""
    spans, out = traced["spans"], traced["outputs"]
    reps = out["reps"]

    def per_run(name: str, stage: str) -> float:
        return _self(spans, name) / reps[stage]

    cold = {mode: _durations(spans, f"certify.certify_exact[cold-{mode}]")[0]
            for mode in ("off", "on")}
    warm = {mode: _median(spans, f"certify.certify_exact[warm-{mode}]")
            for mode in ("off", "on")}
    return {
        "graphs.enumerate_s":
            per_run("graphs.enumerate_level_graphs[stream]", "stream")
            + per_run("graphs.enumerate_level_graphs[classes]", "classes"),
        "graphs.graph_invariants_s": per_run("graphs.graph_invariants", "stream"),
        "graphs.sample_atlas_s": per_run("graphs.sample_atlas", "samples"),
        "graphs.atlas_unrank_us": _median(spans, "graphs.atlas_unrank") * 1e6,
        "graphs.graphs_streamed": out["stream"]["graphs"],
        "graphs.graphs_sampled": out["samples"]["graphs"],
        "certify.type_hull_build_s": cold["off"] - warm["off"],
        "certify.hbb_build_s": cold["on"] - warm["on"],
        "certify.query_off_ms": warm["off"] * 1e3,
        "certify.query_on_ms": warm["on"] * 1e3,
        "certify.s_gamma_affine_s": per_run("certify.s_gamma_affine", "stream"),
        "certify.certify_exact_streaming_s":
            per_run("certify.certify_exact_streaming", "stream"),
        "certify.certify_exact_s":
            (per_run("certify.certify_exact[compare-off]", "stream")
             + per_run("certify.certify_exact[compare-on]", "stream")),
        "checks.graph_identity_failures_s":
            per_run("checks.graph_identity_failures", "identity"),
        "checks.assembly_failures_s": per_run("checks.assembly_failures", "identity"),
        "checks.graphs_checked": out["identity"]["checked"],
        "classes.class_context_s": per_run("classes.ClassContext.from_graphs", "classes"),
        "classes.scaled_canonical_class_s":
            per_run("classes.scaled_canonical_class", "classes"),
        "classes.d_nc_class_s": per_run("classes.d_nc_class", "classes"),
        "classes.hur_class_s": per_run("classes.hur_class", "classes"),
        "classes.wplus_class_raw_s": per_run("classes.wplus_class[raw]", "classes"),
        "classes.wplus_class_reduced_s": per_run("classes.wplus_class[reduced]", "classes"),
        "classes.reduce_class_s": per_run("classes.reduce_class", "classes"),
        "pullback.image_correspondence_s":
            per_run("pullback.image_correspondence", "pullback"),
        "pullback.wplus_derivation_check_s":
            per_run("pullback.wplus_derivation_check", "pullback"),
        "cli.certify_ms": _median(spans, "cli.main[certify]") * 1e3,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": traced["span_count"],
    }


def _declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _with_units(values: dict, trace: bool) -> dict:
    units = _declared_metrics(trace)
    if set(values) != set(units):
        raise BenchError(f"computed metrics {sorted(values)} differ from "
                         f"BENCHMARK.json {sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# -- one run -------------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool,
                  plans: dict = WORKLOADS, certs: dict = CERTS) -> tuple:
    """Measure one run.  Returns the result object, the path of the run's
    record and the messages of the gates that failed."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "stratacert", "__init__.py")):
        raise BenchError(f"no stratacert package under {os.path.join(ROOT, 'src')}")
    plan = plans[workload]
    inputs = make_inputs(workload, plan, seed)
    out_dir = os.path.join(ROOT, ".perfbench_runs")
    tmp_dir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    tally = Tally()
    package_root = os.path.join(ROOT, "src", "stratacert")

    def workload_pass(trace_path):
        request = {"plan": plan, "inputs": inputs, "tmp_dir": tmp_dir,
                   "trace_path": trace_path, "run_id": f"{tag}-{os.getpid()}"}
        result, wall = _child(request, deadline)
        check_pass(tally, plan, result, package_root, certs, ATLAS_COUNTS)
        return result, wall

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "inputs": inputs}
    try:
        main, wall = workload_pass(None)
        record.update(speed=main["speed"], spans=main["spans"])
        if trace:
            trace_path = os.path.join(out_dir, f"trace-{tag}.jsonl")
            traced, traced_wall = workload_pass(trace_path)
            values = per_layer_metrics(traced, traced_wall, wall)
            record.update(trace_file=trace_path, untraced_wall_s=wall)
        else:
            probes = []
            for _ in range(plan["cold_probes"]):
                probe, _ = _child({"probe_genus": plan["cert_genus"]}, deadline)
                check_cold(tally, "cold probe", probe["outputs"]["cold"],
                           plan["cert_genus"], certs, ATLAS_COUNTS)
                probes.append(probe)
            setup = _setup_probes(start + seconds, deadline)
            values = end_to_end_metrics(main, wall, probes, setup)
            record.update(setup_samples_s=setup)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": _with_units(values, trace)}
    record.update(result=result, gate_failures=tally.messages)
    record_path = os.path.join(out_dir, f"{tag}-trace{int(trace)}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, record_path, tally.messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="the stratacert benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result, record_path, failures = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for message in failures:
        print(f"perfbench: gate failed: {message}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} record={os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
