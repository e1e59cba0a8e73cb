"""Slow oracles: the per-graph pipeline summed one Fraction at a time.

The package sums per-prong terms on integers and builds one Fraction per
output (``kappa_mu``, ``graph_invariants``, ``six_coefficients``,
``s_gamma_affine``) and runs the streaming certifier on integer rows.  The
functions here are the plain Fraction forms of the same formulas; the
tests compare the two on full atlases.
"""

from fractions import Fraction

from stratacert.certify import SixCoefficients, _divisor
from stratacert.classes import kappa_minimal, kappa_over_2g
from stratacert.exactq import AffineInY, lcm_list
from stratacert.graphs import (
    DELTA_IRR,
    EDB,
    NCT,
    OCT,
    RBT,
    GraphInvariants,
    canonical_encoding,
    classify_edges,
    enumerate_level_graphs,
    hbb_shape,
)


def kappa_mu(orders):
    """sum of m(m+2)/(m+1) over entries m != -1 (simple poles excluded)."""
    total = Fraction(0)
    for m in orders:
        if m != -1:
            total += Fraction(m * (m + 2), m + 1)
    return total


_RNC_WEIGHT = {NCT: Fraction(1, 2), RBT: Fraction(1), OCT: Fraction(2), EDB: Fraction(4)}


def graph_invariants(graph, hbb_shape_test=True):
    g = graph.genus
    prongs = graph.prongs()
    e = len(prongs)
    p_sum = sum(prongs)
    p_inv = sum(Fraction(1, p) for p in prongs)
    ell = lcm_list(prongs)
    classes = classify_edges(graph)
    n_top = sum(2 * v.genus - 1 + v.degree for v in graph.top_vertices)
    n_bot = 2 * graph.bottom_genus + e - graph.v_top
    kappa_bot = kappa_mu(graph.bottom_legs) - (p_sum - p_inv)
    kappa_top = kappa_mu(tuple(p - 1 for p in prongs))
    r_nc = Fraction(0)
    for p, cls in zip(prongs, classes):
        r_nc += _RNC_WEIGHT[cls] / p
    b_nc = ell * r_nc - 1
    deltas = []
    for v in graph.top_vertices:
        for _ in v.prongs:
            if v.degree >= 2:
                deltas.append(DELTA_IRR)
            else:
                deltas.append(min(v.genus, g - v.genus))
    delta_h = 1 if (hbb_shape_test and hbb_shape(graph)) else 0
    return GraphInvariants(
        genus=g, encoding=canonical_encoding(graph), prongs=prongs, P=p_sum,
        P_minus1=p_inv, ell=ell, edges=e, v_top=graph.v_top, N_top=n_top,
        N_bot=n_bot, kappa_bot=kappa_bot, kappa_top=kappa_top,
        edge_classes=classes, delta_assignments=tuple(deltas), R_NC=r_nc,
        b_NC=b_nc, delta_H=delta_h)


def _b_gamma_six(inv, g):
    _, den, hor, sep = _divisor(g)
    total = Fraction(0)
    for p, target in zip(inv.prongs, inv.delta_assignments):
        if target == DELTA_IRR:
            total += Fraction(2 * hor, den * p)
        else:
            total += Fraction(12 * target * (g - target) * sep, den * p)
    return total


def six_coefficients(inv, g):
    q = kappa_over_2g(g)
    r_gamma = (inv.b_NC + 1 + inv.delta_H) / inv.ell
    c_gamma = q * (inv.N_bot - r_gamma) - inv.kappa_bot
    w_gamma = (inv.kappa_bot / kappa_minimal(g) * (1 + Fraction(1, 2 * g - 1))
               - Fraction(1, 2 * g - 1) + Fraction(inv.v_top - 1, 2))
    w_ratio = 12 * w_gamma / Fraction(g + 11, 2 * g - 2)
    w_bar = (2 * g - 2 - inv.P + inv.P_minus1) / (g + 11)
    b_six = _b_gamma_six(inv, g)
    t1 = AffineInY(
        -q * (inv.v_top - 1) + b_six - inv.P_minus1 - q * r_gamma,
        Fraction(12 * (g - 1) * (inv.v_top - 1), g + 11) - b_six,
    )
    t2 = AffineInY(Fraction(inv.P, 2 * g - 1) - q, 12 * w_bar)
    return SixCoefficients(g, c_gamma, r_gamma, b_six, w_ratio, w_bar, t1, t2)


def s_gamma_affine(inv, g):
    six = six_coefficients(inv, g)
    return AffineInY(six.c_gamma + six.b_gamma_six,
                     six.w_ratio_term - six.b_gamma_six)


def stream_rows(g, hbb_shape_test):
    """(s_Gamma affine, encoding) of every graph of the genus-g atlas."""
    rows = []
    for graph in enumerate_level_graphs(g):
        inv = graph_invariants(graph, hbb_shape_test)
        rows.append((s_gamma_affine(inv, g), inv.encoding))
    return rows


def row_minimum(rows, y):
    """(least value at y, its encoding, its affine): least value, then
    least encoding."""
    best = None
    for aff, enc in rows:
        value = aff(y)
        if best is None or value < best[0] or (value == best[0] and enc < best[1]):
            best = (value, enc, aff)
    return best
