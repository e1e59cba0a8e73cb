"""Correctness gates: compare what a pass returned with the pinned outputs.

Every check counts once toward ``attempted``; a graph run through the
identity battery counts as one check.  A failed check is counted, never
raised, so a run with a wrong output still reports how much was wrong.
"""

import os
from fractions import Fraction


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.count(name, 1, 0 if ok else 1, detail)

    def count(self, name: str, attempted: int, failed: int, detail: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{name}: {failed} of {attempted} failed {detail}".rstrip())


def _interval(feasible: dict):
    """(lo, hi, lo_open, hi_open) as Fractions, or None for an empty set."""
    lo, hi = Fraction(feasible["lo"]), Fraction(feasible["hi"])
    if lo > hi or (lo == hi and (feasible["lo_open"] or feasible["hi_open"])):
        return None
    return lo, hi, feasible["lo_open"], feasible["hi_open"]


def _contains(interval, y: Fraction) -> bool:
    if interval is None:
        return False
    lo, hi, lo_open, hi_open = interval
    above = y > lo if lo_open else y >= lo
    below = y < hi if hi_open else y <= hi
    return above and below


def _pinned_interval(pinned):
    if pinned is None:
        return None
    lo, hi, lo_open, hi_open = pinned
    return Fraction(lo), Fraction(hi), lo_open, hi_open


def _same_certificate(a: dict, b: dict) -> bool:
    """Equal as certificates: status, feasible set, margin and graph count
    (the witness may differ between engines when several graphs tie)."""
    return (a["status"] == b["status"]
            and _interval(a["feasible"]) == _interval(b["feasible"])
            and a["worst_margin"] == b["worst_margin"]
            and a["graph_count"] == b["graph_count"])


def check_pinned(tally, name, cert, genus, hbb, certs, atlas_counts):
    status, feasible, margin, witness = certs[(genus, hbb)]
    got = (cert["status"], _interval(cert["feasible"]), cert["worst_margin"],
           cert["graph_count"])
    want = (status, _pinned_interval(feasible), margin, atlas_counts[genus])
    ok = got == want and (witness is None or cert["worst_graph"] == witness)
    tally.check(name, ok, f"got {got} {cert['worst_graph']}")


def check_cold(tally, label, cold, genus, certs, atlas_counts):
    for mode, hbb in (("off", False), ("on", True)):
        check_pinned(tally, f"{label} g={genus} {mode}", cold[mode], genus, hbb,
                     certs, atlas_counts)


def check_pass(tally, plan, result, package_root, certs, atlas_counts):
    out = result["outputs"]
    tally.check("package imported from the checkout",
                os.path.abspath(result["package_file"]).startswith(package_root + os.sep),
                result["package_file"])

    g = plan["cert_genus"]
    check_cold(tally, "cold certificate", out["cold"], g, certs, atlas_counts)
    cold_sets = {mode: _interval(out["cold"][mode]["feasible"]) for mode in ("off", "on")}
    bad_warm = 0
    for row in out["warm"]:
        interval = _interval(row["feasible"])
        inside = _contains(interval, Fraction(row["y"]))
        if (interval != cold_sets[row["mode"]]
                or (row["status"] == "certified") != inside):
            bad_warm += 1
    tally.count("warm certificates", len(out["warm"]), bad_warm)

    runs = out["cli"]
    tally.check("cli exit codes", all(r["code"] == 0 for r in runs))
    tally.check("cli artifact bytes identical across calls",
                len({r["sha256"] for r in runs}) == 1)
    first = runs[0]["artifact"]
    tally.check("cli artifact matches the engine certificate",
                first is not None and _same_certificate(first, out["cold"]["on"]))

    stream = out["stream"]
    sg = stream["genus"]
    tally.check(f"streamed atlas size g={sg}", stream["graphs"] == atlas_counts[sg],
                str(stream["graphs"]))
    for mode, hbb in (("off", False), ("on", True)):
        check_pinned(tally, f"streaming certificate g={sg} {mode}",
                     stream["streaming"][mode], sg, hbb, certs, atlas_counts)
        tally.check(f"streaming equals engine g={sg} {mode}",
                    _same_certificate(stream["streaming"][mode], stream["engine"][mode]))

    samples = out["samples"]
    for genus, count in samples["atlas_counts"].items():
        tally.check(f"atlas_count g={genus}", count == atlas_counts[int(genus)], str(count))
    want = len(plan["sample_genera"]) * (plan["sample_count"] + plan["ranks_per_genus"])
    tally.check("sampled graph count", samples["graphs"] == want, str(samples["graphs"]))

    identity = out["identity"]
    tally.count("identity battery", identity["checked"], identity["failing"],
                "; ".join(identity["examples"]))

    classes = out["classes"]
    tally.check("reduce_class(raw W+) == reduced W+", classes["reduce_matches"])
    tally.check("class boundary sizes",
                all(n == atlas_counts[classes["genus"]] for n in classes["sizes"]),
                str(classes["sizes"]))

    for stage, mismatches in out["repeat_mismatches"].items():
        tally.count(f"repeated {stage} stage gives the same outputs",
                    out["reps"][stage] - 1, mismatches)

    for row in out["pullback"]:
        tally.check(f"pullback derivation g={row['genus']}", row["match"])
        tally.check(f"image correspondence size g={row['genus']}",
                    row["image"] == atlas_counts[row["genus"]] + 1, str(row["image"]))
