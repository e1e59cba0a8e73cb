"""Workload definitions, the seeded inputs they receive, and the pinned
outputs the gates compare against.

Every workload runs every stage (certify, cli, stream, samples, identity,
classes, pullback) so that every metric is measured on every workload; the
stage sizes decide where a workload's time goes.  ``reps`` runs the short
stages several times (about 2 s each in all) so that their median run is
measured.  ``README.md`` gives the reason for each workload.
"""

import random
from fractions import Fraction

WORKLOADS = {
    # time goes to building the certify engine at genus 31, then querying it
    "exact-g31": {
        "cert_genus": 31, "warm_y": 64, "cold_probes": 0, "cli_calls": 5,
        "stream_genus": 8, "sample_genera": [31], "sample_count": 64,
        "ranks_per_genus": 16, "class_genus": 8,
        "pullback_genera": [4, 5, 6, 7, 8],
        "reps": {"warm": 3, "stream": 4, "samples": 5, "identity": 2,
                 "classes": 4, "pullback": 5},
    },
    # time goes to graph-by-graph work over the full genus-11 atlas
    "atlas-stream": {
        "cert_genus": 11, "warm_y": 64, "cold_probes": 10, "cli_calls": 5,
        "stream_genus": 11, "sample_genera": [31], "sample_count": 64,
        "ranks_per_genus": 16, "class_genus": 8,
        "pullback_genera": [4, 5, 6, 7, 8],
        "reps": {"warm": 5, "stream": 1, "samples": 5, "identity": 1,
                 "classes": 4, "pullback": 5},
    },
    # time goes to random-access unranking, whole-atlas class algebra and
    # the pullback derivation
    "sample-classes": {
        "cert_genus": 10, "warm_y": 64, "cold_probes": 10, "cli_calls": 5,
        "stream_genus": 8, "sample_genera": [31, 34], "sample_count": 500,
        "ranks_per_genus": 64, "class_genus": 10,
        "pullback_genera": [4, 5, 6, 7, 8],
        "reps": {"warm": 8, "stream": 4, "samples": 3, "identity": 1,
                 "classes": 1, "pullback": 5},
    },
}

# Atlas sizes (graphs per genus after the dimension filter).  Genus 31 is
# the count the paper's certificate covers.
ATLAS_COUNTS = {
    4: 23, 5: 58, 6: 140, 7: 320, 8: 716, 9: 1563, 10: 3363, 11: 7119,
    12: 14924, 13: 30922, 14: 63542, 31: 5440744210, 34: 35921597179,
}

EMPTY = None  # a feasible set with no points, however its endpoints read

# Exact certificates with the paper-recipe y policy, per (genus, shape test).
# Each entry: status, feasible set (lo, hi, lo_open, hi_open) or EMPTY,
# worst margin, and the witness graph where it is unique.
CERTS = {
    (31, False): ("certified", ("147/793", "567/2318", True, True),
                  "89234933/14155050000", None),
    (31, True): ("infeasible", EMPTY, "-12940/713761",
                 "g=31;gb=0;legs=60;top=[(30,[30,30])]"),
    (13, False): ("infeasible", EMPTY, "59/3775", None),
    (13, True): ("infeasible", EMPTY, "-101/1525",
                 "g=13;gb=0;legs=24;top=[(12,[12,12])]"),
    (11, False): ("infeasible", EMPTY, "4/343", None),
    (11, True): ("infeasible", EMPTY, "-380/4263",
                 "g=11;gb=0;legs=20;top=[(10,[10,10])]"),
    (10, False): ("infeasible", EMPTY, "-178/551", None),
    (10, True): ("infeasible", EMPTY, "-639/1102", None),
    (8, False): ("infeasible", EMPTY, "-41/69", None),
    (8, True): ("infeasible", EMPTY, "-96/115", None),
    (7, False): ("infeasible", EMPTY, "-2/13", None),
    (7, True): ("infeasible", EMPTY, "-16/39", None),
    (6, False): ("infeasible", EMPTY, "-142/187", None),
    (6, True): ("infeasible", EMPTY, "-1283/1309", None),
}


def make_inputs(workload: str, plan: dict, seed: int) -> dict:
    """The seeded inputs of one run: warm-sweep y values in [0, 1] and
    extra atlas ranks per sampled genus.  Same seed, same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    ys = []
    for _ in range(plan["warm_y"]):
        den = rng.randrange(2, 10001)
        ys.append(str(Fraction(rng.randrange(0, den + 1), den)))
    ranks = {str(g): sorted(rng.randrange(ATLAS_COUNTS[g])
                            for _ in range(plan["ranks_per_genus"]))
             for g in plan["sample_genera"]}
    return {"ys": ys, "ranks": ranks}
