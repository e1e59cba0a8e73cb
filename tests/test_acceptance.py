"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see the report).

All assertions are exact (rational arithmetic; no tolerances anywhere).
Stated runtime expectations are printed for transparency rather than
asserted, since they depend on the host.

Two criteria deviate from their literal statement; both deviations are
computed facts about the formulas, not implementation choices, and each
is pinned by a strict xfail test that re-states the literal claim:

* The prong-total bound ``P <= 2g - 3`` fails exactly on the
  rational-bottom bananas (bottom genus 0, single top vertex, two edges),
  which attain ``P = 2g - 2`` at every genus; criterion 3 checks the
  corrected bound with the equality case pinned.

* With the conservative delta_H shape test (the default), exact-mode
  certification at genus 31 is infeasible: the equal-prong banana
  ``gb=0, top=[(30,[30,30])]`` has a negative coefficient for every y in
  [0, 1].  The certified result of criterion 6 therefore holds only with
  the shape test disabled (sensitivity mode), where the full atlas yields
  the feasible interval (147/793, 567/2318) and a strictly positive worst
  margin.

The full genus-31 and genus-34 atlases contain 5 440 744 210 and
35 921 597 179 coarse types respectively; criterion 5 verifies the
assembled-class identity on every graph for g <= 12 and on deterministic
spread samples (plus targeted extreme graphs) at g in {31, 34}.  Set
STRATACERT_FULL_SCALE=1 to stream entire large atlases instead: about
4.1e10 graphs at roughly 0.04 ms each (enumeration 0.004 ms plus the
assembly check 0.035-0.040 ms, measured at g = 31 on a 2-core container
with Python 3.11.7), so about 19 core-days.
"""

import os
import random
import time
from fractions import Fraction as F

import pytest

from stratacert import checks
from stratacert.certify import (
    BOUNDS_CONFLICT,
    CERTIFIED,
    INFEASIBLE,
    CertRequest,
    certify_exact,
    s_hor_affine,
    scan,
    y_hor,
)
from stratacert.classes import ClassContext, gen_weierstrass_class, reduce_class, wplus_class
from stratacert.graphs import (
    atlas_count,
    canonical_encoding,
    enumerate_level_graphs,
    graph_invariants,
    sample_atlas,
    validate,
)
from stratacert.linseries import (
    REFINED,
    VanishingSequence,
    complementary_sequence,
    is_compatible,
)
from stratacert.pullback import (
    gamma1_graph,
    image_correspondence,
    wplus_derivation_check,
)
from stratacert.classes import twist_improvement_bound

from brute import brute_force_atlas, brute_key_to_encoding
from fraction_oracle import minimal_graph

FULL_SCALE = os.environ.get("STRATACERT_FULL_SCALE") == "1"


def report(criterion, status, detail):
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")


def test_criterion_1_coarse_scan_reproduces_genus_bounds():
    t0 = time.time()
    certs = scan(29, 60, "coarse")
    elapsed = time.time() - t0
    certified = {c.genus for c in certs if c.status == CERTIFIED}
    expected = {31} | set(range(33, 61))
    status = {c.genus: c.status for c in certs}
    ok = (certified == expected
          and status[29] == INFEASIBLE
          and status[30] == INFEASIBLE
          and status[32] == BOUNDS_CONFLICT)
    # the recipe y values
    ok = ok and status and certs[31 - 29].y == F(147, 793) + F(1, 100000)
    ok = ok and certs[47 - 29].y == F(3, 20)
    report(1, "PASS" if ok else "FAIL",
           f"coarse scan 29..60 certifies exactly {{31}} u {{33..60}} "
           f"({elapsed:.2f}s; expectation < 1s)")
    assert certified == expected
    assert status[29] == INFEASIBLE and status[30] == INFEASIBLE
    assert status[32] == BOUNDS_CONFLICT


def test_criterion_2_horizontal_threshold_equivalence():
    t0 = time.time()
    for g in range(9, 102, 2):
        assert y_hor(g) == s_hor_affine(g).root()
    assert y_hor(31) == F(147, 793)
    report(2, "PASS",
           f"y_hor equals the exact s_hor root for odd g in [9, 101]; "
           f"y_hor(31) = 147/793 ({time.time() - t0:.2f}s; expectation < 1s)")


def _identity_graphs():
    for g in range(2, 11):
        yield from enumerate_level_graphs(g)
    for g in (20, 31):
        yield from sample_atlas(g, 500)


def test_criterion_3_identity_suite():
    t0 = time.time()
    checked = 0
    failures = []
    for graph in _identity_graphs():
        checked += 1
        failures.extend(checks.graph_identity_failures(graph))
    elapsed = time.time() - t0
    detail = (f"{checked} graphs (full atlases g in 2..10 plus 500 spread "
              f"samples at g in {{20, 31}}): kappa_bot two-route identity, "
              f"dimension identities, b_NC, the w-ratio decomposition, edge "
              f"taxonomy, and the corrected prong bound P <= 2g-2 with "
              f"equality exactly on rational-bottom bananas (the literal "
              f"P <= 2g-3 of the source is falsified by that family; see "
              f"the strict-xfail companion test) ({elapsed:.2f}s; "
              f"expectation < 10s)")
    report(3, "PASS" if not failures else "FAIL", detail)
    assert failures == []


@pytest.mark.xfail(strict=True,
                   reason="the literal bound P <= 2g-3 fails on the "
                          "rational-bottom banana family (P = 2g-2)")
def test_criterion_3_literal_prong_bound():
    violations = []
    for g in range(2, 11):
        for graph in enumerate_level_graphs(g):
            inv = graph_invariants(graph)
            if inv.P > 2 * g - 3:
                violations.append(inv.encoding)
    report("3(literal)", "FAIL" if violations else "PASS",
           f"P <= 2g-3 violated by {len(violations)} graphs, e.g. "
           f"{violations[0] if violations else '-'}")
    assert violations == []


def test_criterion_4_two_form_agreement():
    t0 = time.time()
    for g in range(4, 11):
        atlas = list(enumerate_level_graphs(g))
        ctx = ClassContext.from_graphs(g, (2 * g - 2,), atlas)
        raw = wplus_class(g, atlas, form="raw")
        red = wplus_class(g, atlas, form="reduced")
        assert reduce_class(raw, ctx) == red, f"wplus two-form mismatch at g={g}"
        mu = (g, g)
        corr = list(image_correspondence(g, mu).values())
        ctx2 = ClassContext.from_graphs(g + 1, mu, corr)
        graw = gen_weierstrass_class(mu, (g, 0), corr, form="raw")
        gred = gen_weierstrass_class(mu, (g, 0), corr, form="reduced")
        assert reduce_class(graw, ctx2) == gred, f"weierstrass mismatch at g={g}"
    report(4, "PASS",
           f"reduce(raw) = reduced for the extra-vanishing and generalized "
           f"Weierstrass classes, full atlases g in 4..10 "
           f"({time.time() - t0:.2f}s; expectation < 10s)")


def _assembly_sample(g):
    """Spread samples plus the structurally extreme graphs."""
    graphs = sample_atlas(g, 3000 if not FULL_SCALE else 0)
    extras = [
        minimal_graph(g, g - 1, [(1, (1,))]),            # single edge, EDB
        minimal_graph(g, 0, [(g - 1, (g - 1, g - 1))]),  # equal-prong banana
        minimal_graph(g, 0, [(g - 1, (1, 2 * g - 3))]),  # skew banana
        minimal_graph(g, 0, [(1, tuple([1] * g))]),      # maximal edge count
    ]
    for x in extras:
        assert validate(x) == []
    return graphs + extras


def test_criterion_5_global_assembly():
    t0 = time.time()
    checked = 0
    for g in (31, 34):
        failures = checks.assembly_scalar_failures(g)
        assert failures == [], failures
        graphs = (enumerate_level_graphs(g) if FULL_SCALE
                  else _assembly_sample(g))
        for graph in graphs:
            checked += 1
            bad = checks.assembly_failures(graph)
            assert bad == [], bad
    for g in range(2, 13):
        for graph in enumerate_level_graphs(g):
            checked += 1
            bad = checks.assembly_failures(graph)
            assert bad == [], bad
    scope = ("full atlases" if FULL_SCALE
             else "3000 spread samples + extreme graphs per genus")
    report(5, "PASS",
           f"lambda cancels, D_h = s_hor(y), D_Gamma = ell s_Gamma(y) at 10 "
           f"rational y samples; g in {{31, 34}} ({scope}) and full atlases "
           f"g in 2..12; {checked} graphs ({time.time() - t0:.1f}s; true "
           f"atlas sizes 5.44e9 / 3.59e10 graphs -- the stated 1e6..1e7 "
           f"estimate is low by three orders of magnitude)")


def test_criterion_6_exact_certification_sensitivity():
    t0 = time.time()
    default = certify_exact(CertRequest(31, "exact", "brill_noether",
                                        "paper_recipe", hbb_shape_test=True))
    sensitivity = certify_exact(CertRequest(31, "exact", "brill_noether",
                                            "paper_recipe", hbb_shape_test=False))
    elapsed = time.time() - t0
    detail_default = (
        f"default (conservative delta_H shape test): {default.status}; "
        f"witness {default.worst_graph} has negative coefficient for every "
        f"y (best value {default.worst_margin})")
    detail_sens = (
        f"shape test off: {sensitivity.status}, feasible "
        f"{sensitivity.feasible}, worst margin {sensitivity.worst_margin} "
        f"> 0 at y = {sensitivity.y}, worst graph {sensitivity.worst_graph}, "
        f"{sensitivity.graph_count} graphs")
    status = "PASS (sensitivity)" if sensitivity.status == CERTIFIED else "FAIL"
    report(6, status, detail_default + " | " + detail_sens
           + f" ({elapsed:.1f}s; expectation under a second)")
    # the self-contained reproduction of the certified range holds with the
    # shape test disabled; the literal default-configuration claim is the
    # strict-xfail companion below
    assert sensitivity.status == CERTIFIED
    assert sensitivity.worst_margin > 0
    assert sensitivity.feasible.lo == y_hor(31)
    assert sensitivity.feasible.hi == F(567, 2318)
    assert default.status == INFEASIBLE
    assert default.worst_graph == "g=31;gb=0;legs=60;top=[(30,[30,30])]"
    assert default.graph_count == 5440744210


@pytest.mark.xfail(strict=True,
                   reason="with the conservative delta_H shape test the "
                          "equal-prong banana gb=0, top=[(30,[30,30])] is "
                          "negative for every y, so the default exact run "
                          "cannot certify genus 31")
def test_criterion_6_literal_default_certification():
    cert = certify_exact(CertRequest(31, "exact", "brill_noether",
                                     "paper_recipe", hbb_shape_test=True))
    report("6(literal)", "FAIL" if cert.status != CERTIFIED else "PASS",
           f"default-configuration certify_exact(31) -> {cert.status}")
    assert cert.status == CERTIFIED
    assert cert.worst_margin > 0


def test_criterion_7_pullback_derivation():
    t0 = time.time()
    for g in range(4, 9):
        rep = wplus_derivation_check(g, (g, g), 1)
        assert rep.match, (g, rep.coordinate_diffs)
        # the exact multiplicity exceeds the twist bound by exactly one
        gamma1 = gamma1_graph(g, (g, g))
        inv = graph_invariants(gamma1)
        bound = twist_improvement_bound(inv, F(g), F(2 * g))
        assert bound == F(g * (g - 1), 2)
        assert (F(g * (g - 1), 2) + 1) - bound == 1
        assert inv.P == 2 * g - 1  # Gamma_1 never satisfies the prong bound
    report(7, "PASS",
           f"pulling the twist-corrected class back reproduces the raw "
           f"extra-vanishing class for g in 4..8, with psi coefficient "
           f"g(g-1)/2 + 1 from the distinguished graph "
           f"({time.time() - t0:.2f}s; expectation < 10s)")


def test_criterion_8_enumeration_oracle():
    t0 = time.time()
    for g in range(2, 9):
        for flag in (True, False):
            expected = {brute_key_to_encoding(g, k)
                        for k in brute_force_atlas(g, dimension_filter=flag)}
            got = {canonical_encoding(x)
                   for x in enumerate_level_graphs(g, dimension_filter=flag)}
            assert got == expected, (g, flag)
            assert len(got) == atlas_count(g, dimension_filter=flag)
    assert atlas_count(2) == 2
    assert atlas_count(2, dimension_filter=False) == 3
    report(8, "PASS",
           f"enumerator matches the independent brute-force oracle for "
           f"g in 2..8, with and without the dimension filter; genus-2 "
           f"counts 2 / 3 ({time.time() - t0:.2f}s; expectation < 30s)")


def test_criterion_9_vanishing_sequences():
    t0 = time.time()
    for g in (4, 6, 9, 15, 31):
        entries = (0,) + tuple(range(2, g)) + (g + 1, 2 * g)
        comp = complementary_sequence(VanishingSequence(entries, 2 * g))
        assert comp.entries == (0, g - 1) + tuple(range(g + 1, 2 * g - 1)) + (2 * g,)
    rng = random.Random(314159)
    for _ in range(1000):
        d = rng.randint(1, 60)
        size = rng.randint(1, d + 1)
        seq = VanishingSequence(tuple(sorted(rng.sample(range(d + 1), size))), d)
        assert complementary_sequence(complementary_sequence(seq)) == seq
        assert is_compatible(seq, complementary_sequence(seq)) == REFINED
    report(9, "PASS",
           f"complement of the even-component node sequence matches; "
           f"involution and refined pairing over 1000 random sequences "
           f"({time.time() - t0:.2f}s; expectation < 1s)")
