"""The compact-type clutching pullback on graphs and divisor classes.

The clutching map glues a fixed elliptic tail carrying all marked points
onto the unique zero of a genus-g curve, landing in the boundary divisor
of the distinguished single-edge graph ``Gamma_1`` (prong 2g-1, genus-1
bottom with all legs) inside a genus-(g+1) stratum.  Pulling back:

* a boundary graph with a leg on a top vertex misses the image and dies;
* a boundary graph with all legs on the bottom loses one from its bottom
  genus and trades its legs for the single leg of order 2g-2;
* ``Gamma_1`` itself contributes ``-psi``; lambda is fixed, psi_i die,
  xi is fixed.

Only the image correspondence is ever materialized: ``Gamma_1`` together
with the inverse surgery applied to the genus-g atlas.  This keeps the
derivation check linear in the atlas size.  By the first rule the
correspondence holds only all-legs-bottom graphs, which are the only
graphs this package represents: a ``TopVertex`` carries no leg.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Mapping, Sequence

from .classes import (
    DivisorClass,
    _twist_pair,
    gen_weierstrass_class,
    wplus_class,
)
from .exactq import rational_str
from .graphs import (
    LevelGraph,
    TopVertex,
    canonical_encoding,
    enumerate_level_graphs,
    graph_invariants,
    validate,
)


class Gamma1Marker:
    """Sentinel: the divisor is Gamma_1 itself (pulls back to -psi)."""

    def __repr__(self):
        return "GAMMA1"


GAMMA1 = Gamma1Marker()


def gamma1_graph(g: int, mu: Sequence[int]) -> LevelGraph:
    """The distinguished graph: genus-g top, genus-1 bottom with all legs,
    one edge of prong 2g-1."""
    return LevelGraph(g + 1, 1, tuple(mu), (TopVertex(g, (2 * g - 1,)),))


def is_gamma1(graph: LevelGraph, g: int) -> bool:
    return (graph.bottom_genus == 1 and graph.v_top == 1
            and graph.top_vertices[0].genus == g
            and graph.top_vertices[0].prongs == (2 * g - 1,))


def zeta_pull_graph(delta: LevelGraph, g: int):
    """Pull a genus-(g+1) boundary graph back to genus g.

    Returns GAMMA1 for the distinguished graph, and otherwise the surgered
    graph: bottom genus decreased by one, legs replaced by the single
    order-(2g-2) leg.
    """
    if delta.genus != g + 1:
        raise ValueError("graph genus does not match the clutching source")
    problems = validate(delta)
    if problems:
        raise ValueError(f"invalid graph: {problems}")
    if is_gamma1(delta, g):
        return GAMMA1
    if delta.bottom_genus < 1:
        raise ValueError("surgery needs positive bottom genus")
    return LevelGraph(g, delta.bottom_genus - 1, (2 * g - 2,), delta.top_vertices)


def surgery_up(graph: LevelGraph, mu: Sequence[int]) -> LevelGraph:
    """The two-sided inverse of the surgery on all-legs-bottom graphs:
    bottom genus +1, the legs replaced by the signature mu.

    The leg total grows by 2 because the bottom degree balance gains one
    genus: sum(mu) = 2g = sum(old legs) + 2.
    """
    if sum(mu) != sum(graph.bottom_legs) + 2:
        raise ValueError("mu must total two more than the current legs")
    return LevelGraph(graph.genus + 1, graph.bottom_genus + 1, tuple(mu),
                      graph.top_vertices)


def _check_mu(g: int, mu: Sequence[int]) -> tuple:
    """mu as a tuple, once it is a signature of the genus-(g+1) stratum the
    clutching lands in: a positive partition of 2g."""
    mu = tuple(mu)
    if sum(mu) != 2 * g or any(m < 1 for m in mu):
        raise ValueError("mu must be a positive partition of 2g")
    return mu


def image_correspondence(g: int, mu: Sequence[int]) -> Dict[str, LevelGraph]:
    """Gamma_1 plus the inverse surgery of the full genus-g atlas, keyed by
    canonical encoding."""
    mu = _check_mu(g, mu)
    gamma1 = gamma1_graph(g, mu)
    graphs = {canonical_encoding(gamma1): gamma1}
    for graph in enumerate_level_graphs(g):
        up = surgery_up(graph, mu)
        graphs[canonical_encoding(up)] = up
    return graphs


def zeta_pull_class(c: DivisorClass, g: int,
                    graphs: Mapping[str, LevelGraph]) -> DivisorClass:
    """Apply the pullback rules coordinate-wise.

    ``graphs`` maps the genus-(g+1) boundary encodings appearing in ``c``
    to their graphs.  The horizontal coordinate passes through untouched;
    no class built here carries one.
    """
    psi = Fraction(0)
    boundary: Dict[str, Fraction] = {}
    for enc, coeff in c.boundary.items():
        image = zeta_pull_graph(graphs[enc], g)
        if image is GAMMA1:
            psi -= coeff
            continue
        key = canonical_encoding(image)
        boundary[key] = boundary.get(key, Fraction(0)) + coeff
    return DivisorClass(lam=c.lam, d_h=c.d_h,
                        psi=(psi,) if psi else (), xi=c.xi, boundary=boundary)


@dataclass(frozen=True)
class PullbackReport:
    match: bool
    coordinate_diffs: dict

    def to_json(self) -> dict:
        return {
            "match": self.match,
            "coordinate_diffs": {k: rational_str(v)
                                 for k, v in sorted(self.coordinate_diffs.items())},
        }


def saturated_alpha(mu: Sequence[int], k: int) -> tuple:
    """A k-saturated partition for mu: alpha_k = m_k, the rest filled
    greedily in index order to reach total g."""
    mu = tuple(mu)
    total = sum(mu)
    if total % 2:
        raise ValueError("mu must be a partition of an even number 2g")
    g = total // 2
    if not 1 <= k <= len(mu):
        raise ValueError("index k out of range")
    if mu[k - 1] > g:
        raise ValueError("no k-saturated partition exists when m_k > g")
    alpha = [0] * len(mu)
    alpha[k - 1] = mu[k - 1]
    left = g - mu[k - 1]
    for j, m in enumerate(mu):
        if j == k - 1 or left == 0:
            continue
        take = min(m, left)
        alpha[j] = take
        left -= take
    if left:
        raise AssertionError("saturation fill failed")
    return tuple(alpha)


def class_with_twist_bounds(g: int, mu: Sequence[int], alpha: Sequence[int],
                            graphs: Mapping[str, LevelGraph]) -> DivisorClass:
    """The effective genus-(g+1) class that avoids Gamma_1 in its support:
    the raw degeneracy-locus class (``gen_weierstrass_class``'s raw form)
    minus the exact Gamma_1 multiplicity g(g-1)/2 + 1 and, on every other
    boundary divisor, the guaranteed twist gain plus the vanishing order
    ell (v_top - 1)/2: one Fraction per graph, over the twist gain's even
    denominator."""
    raw = gen_weierstrass_class(mu, alpha, (), form="raw")
    alpha_bot = sum(alpha)
    boundary: Dict[str, Fraction] = {}
    for enc, graph in graphs.items():
        if is_gamma1(graph, g):
            boundary[enc] = Fraction(-(g * (g - 1) + 2), 2)
            continue
        inv = graph_invariants(graph)
        num, den = _twist_pair(inv, alpha_bot, sum(graph.bottom_legs))
        boundary[enc] = Fraction(-(num + inv.ell * (inv.v_top - 1) * (den // 2)), den)
    return replace(raw, boundary=boundary)


def wplus_derivation_check(g: int, mu: Sequence[int], k: int) -> PullbackReport:
    """Pull the twist-corrected genus-(g+1) class back and compare it with
    the raw form of the extra-vanishing Weierstrass class, coordinate by
    coordinate over the image correspondence."""
    mu = _check_mu(g, mu)
    alpha = saturated_alpha(mu, k)
    graphs = image_correspondence(g, mu)
    upstairs = class_with_twist_bounds(g, mu, alpha, graphs)
    pulled = zeta_pull_class(upstairs, g, graphs)
    target = wplus_class(g, enumerate_level_graphs(g), form="raw")
    diffs = pulled.coefficient_diffs(target)
    return PullbackReport(match=not diffs, coordinate_diffs=diffs)
