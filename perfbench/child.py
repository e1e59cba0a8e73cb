"""One benchmark pass in a fresh interpreter.

Run as ``python3 perfbench/child.py`` with ``src`` on ``PYTHONPATH`` and a
JSON request on stdin; prints one JSON object on stdout.  The request is
either a full workload pass (``{"plan", "inputs", "trace_path", "tmp_dir",
"run_id"}``) or a cold-certificate probe (``{"probe_genus": g}``).  The pass
only drives stratacert's public functions and reports what they returned
and how long they took; the parent process judges correctness.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
from fractions import Fraction

from spans import Recorder

import stratacert
from stratacert import (
    CertRequest,
    ClassContext,
    atlas_count,
    atlas_unrank,
    certify_exact,
    certify_exact_streaming,
    checks,
    cli,
    d_nc_class,
    enumerate_level_graphs,
    graph_invariants,
    hur_class,
    image_correspondence,
    reduce_class,
    s_gamma_affine,
    sample_atlas,
    scaled_canonical_class,
    wplus_class,
    wplus_derivation_check,
)

MODES = (("off", False), ("on", True))  # off first: it builds the type hulls


def _request(g: int, hbb: bool, y="paper_recipe") -> CertRequest:
    return CertRequest(g, "exact", "auto", y, hbb)


def cold_certificates(rec: Recorder, g: int) -> dict:
    certs = {}
    for mode, hbb in MODES:
        with rec.span("certify.certify_exact", "cold-" + mode):
            certs[mode] = certify_exact(_request(g, hbb)).to_json()
    return certs


def warm_stage(rec, plan, inputs):
    """Every seeded y in both modes, with the engine already built."""
    g = plan["cert_genus"]
    warm = []
    for text in inputs["ys"]:
        y = Fraction(text)
        for mode, hbb in MODES:
            with rec.span("certify.certify_exact", "warm-" + mode):
                cert = certify_exact(_request(g, hbb, y))
            warm.append({"y": text, "mode": mode, "status": cert.status,
                         "feasible": cert.feasible.to_json()})
    return warm, None


def cli_stage(rec, plan, tmp_dir, out):
    runs = []
    for i in range(plan["cli_calls"]):
        path = os.path.join(tmp_dir, f"certify-{i}.json")
        argv = ["certify", "--genus", str(plan["cert_genus"]),
                "--mode", "exact", "--out", path]
        with contextlib.redirect_stderr(io.StringIO()):
            with rec.span("cli.main", "certify"):
                code = cli.main(argv)
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        runs.append({"code": code, "sha256": hashlib.sha256(data).hexdigest(),
                     "artifact": json.loads(data) if code == 0 else None})
    out["cli"] = runs


def stream_stage(rec, plan):
    g = plan["stream_genus"]
    streamed = {}
    with rec.span("stage.stream"):
        with rec.span("graphs.enumerate_level_graphs", "stream"):
            graphs = list(enumerate_level_graphs(g))
        invariants = []
        for graph in graphs:
            with rec.call("graphs.graph_invariants"):
                invariants.append(graph_invariants(graph))
        for inv in invariants:
            with rec.call("certify.s_gamma_affine"):
                s_gamma_affine(inv, g)
        for mode, hbb in MODES:
            with rec.span("certify.certify_exact_streaming", mode):
                streamed[mode] = certify_exact_streaming(_request(g, hbb)).to_json()
    engine = {}
    for mode, hbb in MODES:
        with rec.span("certify.certify_exact", "compare-" + mode):
            engine[mode] = certify_exact(_request(g, hbb)).to_json()
    return {"genus": g, "graphs": len(graphs), "streaming": streamed,
            "engine": engine}, graphs


def samples_stage(rec, plan, inputs):
    graphs = []
    counts = {}
    with rec.span("stage.samples"):
        for g in plan["sample_genera"]:
            with rec.span("graphs.atlas_count", str(g)):
                counts[str(g)] = atlas_count(g)
            with rec.span("graphs.sample_atlas", str(g)):
                graphs.extend(sample_atlas(g, plan["sample_count"]))
            for rank in inputs["ranks"][str(g)]:
                with rec.call("graphs.atlas_unrank"):
                    graphs.append(atlas_unrank(g, rank))
    return {"atlas_counts": counts, "graphs": len(graphs)}, graphs


def identity_stage(rec, graphs):
    failing = []
    with rec.span("stage.identity"):
        for graph in graphs:
            with rec.call("checks.graph_identity_failures"):
                bad = checks.graph_identity_failures(graph)
            with rec.call("checks.assembly_failures"):
                bad += checks.assembly_failures(graph)
            if bad:
                failing.append(bad[0])
    return {"checked": len(graphs), "failing": len(failing),
            "examples": failing[:5]}, None


def classes_stage(rec, plan):
    g = plan["class_genus"]
    with rec.span("graphs.enumerate_level_graphs", "classes"):
        graphs = list(enumerate_level_graphs(g))
    with rec.span("stage.classes"):
        with rec.span("classes.ClassContext.from_graphs"):
            ctx = ClassContext.from_graphs(g, (2 * g - 2,), graphs)
        with rec.span("classes.scaled_canonical_class"):
            canonical = scaled_canonical_class(g, graphs)
        with rec.span("classes.d_nc_class"):
            dnc = d_nc_class(g, graphs)
        with rec.span("classes.hur_class"):
            hur = hur_class(g, graphs)
        with rec.span("classes.wplus_class", "raw"):
            raw = wplus_class(g, graphs, form="raw")
        with rec.span("classes.wplus_class", "reduced"):
            reduced = wplus_class(g, graphs, form="reduced")
        with rec.span("classes.reduce_class"):
            derived = reduce_class(raw, ctx)
    return {
        "genus": g,
        "reduce_matches": derived == reduced,
        "sizes": [len(c.boundary) for c in (canonical, dnc, hur, raw, reduced)],
    }, None


def pullback_stage(rec, plan):
    rows = []
    with rec.span("stage.pullback"):
        for g in plan["pullback_genera"]:
            with rec.span("pullback.image_correspondence", str(g)):
                image = len(image_correspondence(g, (g, g)))
            with rec.span("pullback.wplus_derivation_check", str(g)):
                report = wplus_derivation_check(g, (g, g), 1)
            rows.append({"genus": g, "image": image, "match": report.match})
    return rows, None


def repeated(out: dict, key: str, reps: int, stage, *args):
    """Run a stage ``reps`` times so that its median run, not one run, is
    measured.  A full collection before each run, outside every span,
    starts it from the same collector state whatever came before.  The
    first run's output goes to ``out[key]``; later runs must repeat it.
    """
    outputs = []
    for _ in range(reps):
        gc.collect()
        output, passed_on = stage(*args)
        outputs.append(output)
    out[key] = outputs[0]
    out["reps"][key] = reps
    out["repeat_mismatches"][key] = sum(o != outputs[0] for o in outputs[1:])
    return passed_on


def workload_pass(rec: Recorder, request: dict) -> dict:
    plan, inputs = request["plan"], request["inputs"]
    out = {"reps": {}, "repeat_mismatches": {}}
    # certify first: its cold timings must see no cache warmed by other stages
    out["cold"] = cold_certificates(rec, plan["cert_genus"])
    reps = plan["reps"]
    repeated(out, "warm", reps["warm"], warm_stage, rec, plan, inputs)
    gc.collect()
    cli_stage(rec, plan, request["tmp_dir"], out)
    graphs = repeated(out, "stream", reps["stream"], stream_stage, rec, plan)
    graphs = graphs + repeated(out, "samples", reps["samples"], samples_stage,
                               rec, plan, inputs)
    repeated(out, "identity", reps["identity"], identity_stage, rec, graphs)
    repeated(out, "classes", reps["classes"], classes_stage, rec, plan)
    repeated(out, "pullback", reps["pullback"], pullback_stage, rec, plan)
    return out


def main() -> int:
    request = json.load(sys.stdin)
    trace_path = request.get("trace_path")
    rec = Recorder(request.get("run_id", "probe"), tracing=trace_path is not None)
    rec.start_sampling()
    if "probe_genus" in request:
        out = {"cold": cold_certificates(rec, request["probe_genus"])}
    else:
        out = workload_pass(rec, request)
    rec.stop_sampling()
    if trace_path:
        rec.write(trace_path)
    result = {"outputs": out, "spans": rec.summary(), "span_count": len(rec.spans),
              "mean_scale": rec.mean_scale(), "speed": rec.speed_summary()}
    result["package_file"] = os.path.abspath(stratacert.__file__)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
