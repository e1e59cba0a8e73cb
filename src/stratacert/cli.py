"""Command-line front end.

Exit codes: 0 on success (an infeasible certificate is a successful run),
1 on usage errors, 2 on internal invariant violations (a failing identity
suite, a pullback derivation that does not match, or an engine
self-check); a failing check still writes its artifact.

Standard output carries only the requested artifact; progress and
diagnostics go to standard error.  Every artifact embeds the resolved
configuration (a trailing ``# config:`` comment for text/csv, a
``"config"`` key for json), and output bytes are identical across runs
and worker counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import checks
from .certify import (
    Certificate,
    CertRequest,
    cert_requests,
    certify_request,
    rational_str,
)
from .classes import (
    bn_class,
    d_nc_class,
    gen_weierstrass_class,
    hur_class,
    scaled_canonical_class,
    wplus_class,
)
from .graphs import (
    atlas_count,
    enumerate_level_graphs,
    iter_atlas,
    sample_atlas,
    validate,
    write_atlas,
)
from .pullback import image_correspondence, saturated_alpha, wplus_derivation_check


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_y_policy(text: str):
    if text in ("auto", "auto_midpoint"):
        return "auto_midpoint"
    if text in ("recipe", "paper_recipe"):
        return "paper_recipe"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad y policy {text!r}: {exc}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}: {exc}")


def build_parser() -> _Parser:
    parser = _Parser(prog="stratacert",
                     description="exact positivity certificates for boundary "
                                 "coefficients on minimal even-spin strata")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, default, genus=True):
        if genus:
            p.add_argument("--genus", type=int, required=True)
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def workers(p):
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="worker processes; output bytes do not depend on this")

    all_formats = ("json", "csv", "text")

    p = sub.add_parser("enumerate", help="stream the atlas of boundary graphs")
    common(p, all_formats, "text")
    p.add_argument("--raw", action="store_true",
                   help="disable the dimension (nonemptiness) filter")
    p.add_argument("--atlas", default=None,
                   help="read graphs from a cached text atlas instead of enumerating")

    p = sub.add_parser("invariants", help="per-graph invariant table")
    common(p, ("json", "csv"), "csv")
    p.add_argument("--atlas", default=None)
    p.add_argument("--no-hbb-shape", action="store_true")

    p = sub.add_parser("class", help="a divisor class over the atlas")
    common(p, ("json",), "json")
    p.add_argument("--which", required=True,
                   choices=("canonical", "dnc", "bn", "hur", "wplus", "genw"))
    p.add_argument("--form", choices=("raw", "reduced"), default="reduced",
                   help="raw only with --which wplus or genw")
    p.add_argument("--mu", default=None, help="signature for genw, e.g. 4,4")
    p.add_argument("--alpha", default=None, help="twist partition for genw")
    p.add_argument("--atlas", default=None, help="not with --which genw")
    p.add_argument("--no-hbb-shape", action="store_true",
                   help="only with --which canonical")

    p = sub.add_parser("certify", help="certify one genus")
    common(p, all_formats, "json")
    p.add_argument("--mode", choices=("coarse", "exact"), default="exact")
    p.add_argument("--y", default="auto", help="auto | recipe | a rational p/q")
    p.add_argument("--no-hbb-shape", action="store_true")

    p = sub.add_parser("scan", help="certify a genus range")
    common(p, ("json", "csv"), "csv", genus=False)
    workers(p)
    p.add_argument("--from", dest="g_from", type=int, required=True)
    p.add_argument("--to", dest="g_to", type=int, required=True)
    p.add_argument("--mode", choices=("coarse", "exact"), default="coarse")
    p.add_argument("--y", default="recipe")
    p.add_argument("--no-hbb-shape", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="fill the seconds column (breaks byte-reproducibility)")

    p = sub.add_parser("pullback-check",
                       help="verify the clutching-pullback derivation")
    common(p, ("json",), "json")
    p.add_argument("--mu", default=None, help="default g,g")
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("identities", help="run the identity suites")
    # always a text report, so no --format
    p.add_argument("--out", default=None, help="output path (default stdout)")
    workers(p)
    p.add_argument("--genus-max", type=int, required=True)
    p.add_argument("--full-max", type=int, default=10,
                   help="largest genus checked on the full atlas")
    p.add_argument("--samples", type=_positive_int, default=500,
                   help="spread-sample size above --full-max")
    p.add_argument("--no-hbb-shape", action="store_true")
    return parser


def _config_dict(args) -> dict:
    # workers never affects the artifact, so it is not part of the
    # reproducibility record; out is where the artifact goes, not what it is
    skip = {"out", "workers"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = str(value) if isinstance(value, Fraction) else value
    return out


@contextlib.contextmanager
def _output(out: Optional[str]):
    """The artifact's file object: the --out path, or stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out: Optional[str]) -> None:
    with _output(out) as fh:
        fh.write(text)


def _config_comment(args) -> str:
    return "# config: " + json.dumps(_config_dict(args), sort_keys=True) + "\n"


def _json_artifact(payload: dict, args) -> str:
    payload = dict(payload)
    payload["config"] = _config_dict(args)
    return json.dumps(payload, indent=1, sort_keys=False) + "\n"


def _drain(items: list):
    """The items of a list in order, each dropped from the list as it is
    read, so that a reader that keeps none of them holds one at a time."""
    items.reverse()
    while items:
        yield items.pop()


def _load_graphs(args, dimension_filter: bool = True):
    """The graphs a command reads: the genus-g atlas as a stream, or a
    cached atlas, listed and validated in full before anything is written
    and then handed over by ``_drain``, so that a class builder, which
    fills each graph's invariants memo, does not keep every memo."""
    if not args.atlas:
        if args.genus < 2:
            # the stream would raise only at its first graph, after the
            # artifact had been opened
            raise UsageError("genus must be >= 2")
        return enumerate_level_graphs(args.genus, dimension_filter)
    g = args.genus
    graphs = []
    first_line = {}
    with open(args.atlas, encoding="utf-8") as fh:
        for lineno, graph in iter_atlas(fh):
            where = f"{args.atlas} line {lineno}"
            if graph.genus != g:
                raise UsageError(f"{where}: cached atlas genus does not match --genus")
            problems = validate(graph)
            if problems:
                raise UsageError(f"{where}: invalid graph: {'; '.join(problems)}")
            if graph.bottom_legs != (2 * g - 2,):
                raise UsageError(f"{where}: legs are not ({2 * g - 2},)")
            if graph in first_line:
                raise UsageError(f"{where}: repeats line {first_line[graph]}")
            first_line[graph] = lineno
            graphs.append(graph)
    return _drain(graphs)


def _cmd_enumerate(args) -> int:
    if args.atlas and args.raw:
        # a cached atlas holds only graphs that pass validate
        raise UsageError("--raw does not apply to --atlas")
    graphs = _load_graphs(args, dimension_filter=not args.raw)
    with _output(args.out) as fh:
        write_atlas(graphs, fh, fmt=args.format)
        fh.write(_config_comment(args))
    return 0


def _cmd_invariants(args) -> int:
    graphs = _load_graphs(args)
    with _output(args.out) as fh:
        write_atlas(graphs, fh, fmt=args.format, hbb_shape_test=not args.no_hbb_shape)
        fh.write(_config_comment(args))
    return 0


# a class holds a coefficient per boundary graph and its JSON sorts them, so
# it cannot be streamed; genus 17 (525,906 graphs) is the largest under this
_CLASS_MAX_GRAPHS = 10**6


def _cmd_class(args) -> int:
    g = args.genus
    if args.no_hbb_shape and args.which != "canonical":
        raise UsageError("--no-hbb-shape applies only to --which canonical")
    if args.form == "raw" and args.which not in ("wplus", "genw"):
        raise UsageError("--form raw applies only to --which wplus or genw")
    if args.which == "genw":
        if args.atlas:
            raise UsageError("--atlas does not apply to --which genw")
        if not args.mu or not args.alpha:
            raise UsageError("genw requires --mu and --alpha")
        mu = _parse_int_list(args.mu)
        alpha = _parse_int_list(args.alpha)
        graphs = list(image_correspondence(g, mu).values())
        cls = gen_weierstrass_class(mu, alpha, graphs, form=args.form)
    else:
        for option, value in (("--mu", args.mu), ("--alpha", args.alpha)):
            if value is not None:
                raise UsageError(f"{option} applies only to --which genw")
        graphs = _load_graphs(args)
        if not args.atlas and (count := atlas_count(g)) > _CLASS_MAX_GRAPHS:
            raise UsageError(
                f"the genus-{g} atlas has {count} graphs, more than "
                f"the {_CLASS_MAX_GRAPHS} a class is built over in memory; "
                "give a smaller atlas with --atlas")
        if args.which == "canonical":
            cls = scaled_canonical_class(g, graphs,
                                         hbb_shape_test=not args.no_hbb_shape)
        elif args.which == "dnc":
            cls = d_nc_class(g, graphs)
        elif args.which == "bn":
            cls = bn_class(g, graphs)
        elif args.which == "hur":
            cls = hur_class(g, graphs)
        else:
            cls = wplus_class(g, graphs, form=args.form)
    _emit(_json_artifact(cls.to_json(), args), args.out)
    return 0


def _certificate_text(cert: Certificate) -> str:
    lines = [
        f"genus {cert.genus} [{cert.mode}] -> {cert.status}",
        f"  effective divisor: {cert.effective_divisor}",
        f"  y: {'-' if cert.y is None else rational_str(cert.y)}",
        f"  feasible: {cert.feasible}",
        f"  graphs: {cert.graph_count}",
        f"  worst: {cert.worst_graph or '-'}"
        f" margin {'-' if cert.worst_margin is None else rational_str(cert.worst_margin)}",
    ]
    lines.extend(f"  note: {n}" for n in cert.notes)
    return "\n".join(lines) + "\n"


_SCAN_COLUMNS = "genus,mode,status,y,margin,graph_count,seconds"


def _scan_row(cert: Certificate, seconds: Optional[float]) -> str:
    return ",".join([
        str(cert.genus), cert.mode, cert.status,
        "" if cert.y is None else rational_str(cert.y),
        "" if cert.worst_margin is None else rational_str(cert.worst_margin),
        str(cert.graph_count),
        "" if seconds is None else f"{seconds:.3f}",
    ])


def _cmd_certify(args) -> int:
    # a genus below 2 fails in the certifier's own request check
    req = CertRequest(args.genus, args.mode, y_policy=_parse_y_policy(args.y),
                      hbb_shape_test=not args.no_hbb_shape)
    print(f"certifying genus {args.genus} ({args.mode})...", file=sys.stderr)
    cert = certify_request(req)
    if args.format == "json":
        _emit(_json_artifact(cert.to_json(), args), args.out)
    elif args.format == "csv":
        text = _SCAN_COLUMNS + "\n" + _scan_row(cert, None) + "\n"
        _emit(text + _config_comment(args), args.out)
    else:
        _emit(_certificate_text(cert) + _config_comment(args), args.out)
    return 0


def _pmap(fn, tasks: list, workers: int):
    """Ordered lazy map over at most ``workers`` processes; results are
    identical for any worker count."""
    size = min(workers, len(tasks))
    if size > 1:
        import multiprocessing as mp

        with mp.Pool(size) as pool:
            yield from pool.imap(fn, tasks)
    else:
        yield from map(fn, tasks)


def _timed_certificate(req):
    t0 = time.monotonic()
    cert = certify_request(req)
    return cert, time.monotonic() - t0


def _cmd_scan(args) -> int:
    rows = []
    certs = []
    requests = cert_requests(args.g_from, args.g_to, args.mode,
                             y_policy=_parse_y_policy(args.y),
                             hbb_shape_test=not args.no_hbb_shape)
    for cert, dt in _pmap(_timed_certificate, requests, args.workers):
        print(f"genus {cert.genus}: {cert.status}", file=sys.stderr)
        certs.append(cert)
        rows.append(_scan_row(cert, dt if args.timings else None))
    if args.format == "json":
        payload = {"certificates": [c.to_json() for c in certs]}
        if args.mode == "exact":
            first = next((c.genus for c in certs if not c.feasible.is_empty()),
                         None)
            payload["first_feasible_genus"] = first
        _emit(_json_artifact(payload, args), args.out)
    else:
        text = _SCAN_COLUMNS + "\n" + "\n".join(rows) + "\n"
        _emit(text + _config_comment(args), args.out)
    return 0


def _cmd_pullback_check(args) -> int:
    g = args.genus
    mu = _parse_int_list(args.mu) if args.mu else (g, g)
    report = wplus_derivation_check(g, mu, args.k)
    payload = report.to_json()
    payload["genus"] = g
    payload["mu"] = list(mu)
    payload["k"] = args.k
    payload["alpha"] = list(saturated_alpha(mu, args.k))
    _emit(_json_artifact(payload, args), args.out)
    return 0 if report.match else 2


def _identity_task(task) -> tuple:
    g, full_max, samples, hbb = task
    start = time.perf_counter()
    if g <= full_max or samples >= atlas_count(g):
        graphs = enumerate_level_graphs(g)
        label = "full atlas"
    else:
        graphs = sample_atlas(g, samples)
        label = f"{samples} spread samples"
    checked, failures = checks.identity_suite(graphs, hbb_shape_test=hbb)
    failures.extend(checks.assembly_scalar_failures(g))
    return g, label, checked, failures, time.perf_counter() - start


def _cmd_identities(args) -> int:
    if args.genus_max < 2:
        raise UsageError("--genus-max must be at least 2")
    hbb = not args.no_hbb_shape
    all_ok = True
    lines = []
    tasks = [(g, args.full_max, args.samples, hbb)
             for g in range(2, args.genus_max + 1)]
    for g, label, checked, failures, seconds in _pmap(_identity_task, tasks,
                                                      args.workers):
        status = "ok" if not failures else "FAIL"
        all_ok &= not failures
        line = f"genus {g}: {checked} graphs ({label}): {status}"
        lines.append(line)
        lines.extend(f"  {f}" for f in failures[:20])
        # timings go to stderr only, so the report stays byte-identical
        print(f"{line} ({seconds:.2f} s, {checked / seconds:.0f} graphs/s)",
              file=sys.stderr)
    root_failures = checks.y_hor_root_failures(range(9, 102))
    all_ok &= not root_failures
    lines.append("y_hor root equivalence (odd 9..101): "
                 + ("ok" if not root_failures else "FAIL"))
    lines.extend(f"  {f}" for f in root_failures)
    _emit("\n".join(lines) + "\n" + _config_comment(args), args.out)
    return 0 if all_ok else 2


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "invariants": _cmd_invariants,
    "class": _cmd_class,
    "certify": _cmd_certify,
    "scan": _cmd_scan,
    "pullback-check": _cmd_pullback_check,
    "identities": _cmd_identities,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
