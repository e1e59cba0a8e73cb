"""Slow oracles: the per-graph pipeline, the identity battery and the
divisor classes summed one Fraction at a time.

The package sums per-prong terms on integers.  ``graph_invariants``
gives each rational invariant as a reduced (numerator, denominator)
pair and builds no Fraction; the package builds one Fraction per output
(``kappa_mu``, ``six_coefficients``, ``s_gamma_affine``, the class
helper ``_canonical_coeff``, every class builder's boundary coefficient,
each coordinate ``reduce_class`` updates, and ``class_with_twist_bounds``),
runs the streaming certifier on integer rows, and runs the identity
battery on integer pairs, comparing rationals by cross-multiplication;
``graph_invariants`` and ``canonical_encoding`` read each vertex's prong
lcm, shares and encoding fragment from its ``TopVertex``, computed once
when it was built.  The functions here are the plain Fraction forms of
the same formulas and checks, and their invariants hold Fractions
(``as_fractions`` turns the package's pairs into them); the tests
compare the two on full atlases, raw atlases, pullback image graphs and
samples of large-genus atlases (``ORACLE_CASES``).

Some rules the package states only inline, inside the one loop of
``graph_invariants`` or one integer pair, are stated here on their own as
the references the tests compare it with: ``classify_edges`` (the edge
classes), ``hbb_shape`` (the HBB shape test), ``kappa_minimal`` and
``wplus_w_gamma``.  ``minimal_graph`` builds the tests' hand-made graphs.
"""

from fractions import Fraction

import pytest

from stratacert.certify import SixCoefficients, _divisor
from stratacert.checks import DEFAULT_Y_SAMPLES, is_rational_bottom_banana
from stratacert.classes import (
    ClassContext,
    DivisorClass,
    _divisor_integers,
    kappa_over_2g,
    wplus_w_hor,
    wplus_w_lambda,
)
from stratacert.exactq import AffineInY, lcm_list
from stratacert.graphs import (
    DELTA_IRR,
    EDB,
    NCT,
    OCT,
    RBT,
    GraphInvariants,
    LevelGraph,
    TopVertex,
    enumerate_level_graphs,
    sample_atlas,
    validate,
)
from stratacert.pullback import image_correspondence, is_gamma1

# (kind, genus) of every graph collection the per-graph oracles are
# compared on, as pytest parameters; see oracle_graphs.  A filtered atlas
# is named by its genus alone.
ORACLE_CASES = [
    pytest.param(kind, g, id=str(g) if kind == "atlas" else f"{kind}-{g}")
    for kind, genera in (("atlas", range(2, 11)), ("raw", range(2, 10)),
                         ("image", range(4, 8)), ("sample", (31, 34)))
    for g in genera
]


def oracle_graphs(kind, g):
    """The graphs of one oracle comparison: the genus-g atlas with the
    dimension filter ("atlas") or without it ("raw"), the pullback image
    graphs of image_correspondence(g, (g, g)), of genus g + 1 with two
    bottom legs and positive bottom genus ("image"), or 200 graphs spread
    over the genus-g atlas ("sample")."""
    if kind == "atlas":
        return list(enumerate_level_graphs(g))
    if kind == "raw":
        return list(enumerate_level_graphs(g, dimension_filter=False))
    if kind == "image":
        return list(image_correspondence(g, (g, g)).values())
    if kind == "sample":
        return sample_atlas(g, 200)
    raise ValueError(f"unknown oracle case: {kind!r}")


def count_fractions(patch):
    """A list that gets the arguments of every Fraction construction while
    ``patch`` (a monkeypatch context) is open; on Python >= 3.12 Fraction
    arithmetic builds its results without ``__new__``, so only explicit
    constructions are counted there."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    patch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


def typed(x):
    """x with the type of every value, so that an int never passes for a
    Fraction."""
    if isinstance(x, AffineInY):
        return (AffineInY, typed(x.intercept), typed(x.slope))
    if isinstance(x, tuple):
        return tuple(typed(v) for v in x)
    return (type(x), x)


def minimal_graph(g, bottom_genus, tops):
    """A graph of the minimal signature: ``tops`` = (genus, prongs) pairs."""
    vertices = tuple(TopVertex(h, tuple(p)) for h, p in tops)
    return LevelGraph(g, bottom_genus, (2 * g - 2,), vertices)


def classify_edges(graph):
    """Per-edge class in canonical edge order.

    An edge at a top vertex of degree >= 2 is non-separating (NCT).  A
    separating edge is EDB when it is the unique edge of the graph and one
    of its ends has genus 1, RBT when the component below it is a single
    rational vertex, and OCT otherwise.
    """
    classes = []
    single_edge = graph.edge_count == 1
    for v in graph.top_vertices:
        d = len(v.prongs)
        if d >= 2:
            cls = NCT
        elif single_edge and (v.genus == 1 or graph.bottom_genus == 1):
            cls = EDB
        elif graph.v_top == 1 and graph.bottom_genus == 0:
            cls = RBT
        else:
            cls = OCT
        classes += [cls] * d
    return tuple(classes)


def hbb_shape(graph):
    """Shape test for hyperelliptic-banana-backbone graphs: every top vertex
    is joined to the bottom by exactly one edge or by a pair of edges with
    equal prong, and at least one pair occurs."""
    has_pair = False
    for v in graph.top_vertices:
        if v.degree == 1:
            continue
        if v.degree == 2 and v.prongs[0] == v.prongs[1]:
            has_pair = True
            continue
        return False
    return has_pair


def kappa_minimal(g):
    """kappa of the minimal signature (2g-2); equals 4g(g-1)/(2g-1)."""
    return Fraction(4 * g * (g - 1), 2 * g - 1)


def kappa_mu(orders):
    """sum of m(m+2)/(m+1) over entries m != -1 (simple poles excluded)."""
    total = Fraction(0)
    for m in orders:
        if m != -1:
            total += Fraction(m * (m + 2), m + 1)
    return total


_RNC_WEIGHT = {NCT: Fraction(1, 2), RBT: Fraction(1), OCT: Fraction(2), EDB: Fraction(4)}


def canonical_encoding(graph):
    """The canonical encoding formatted prong by prong, vertex by vertex."""
    legs = ",".join(map(str, graph.bottom_legs))
    tops = ",".join([
        f"({v.genus},[{','.join(map(str, v.prongs))}])" for v in graph.top_vertices])
    return f"g={graph.genus};gb={graph.bottom_genus};legs={legs};top=[{tops}]"


# the rational invariants: reduced integer pairs in the package, Fractions
# here
PAIR_FIELDS = ("P_minus1", "kappa_bot", "R_NC", "b_NC")


def as_fractions(inv):
    """The package's invariants with each pair field as its Fraction, for
    the forms here that read invariants."""
    return inv._replace(**{name: Fraction(*getattr(inv, name)) for name in PAIR_FIELDS})


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
        N_bot=n_bot, kappa_bot=kappa_bot,
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


def split(inv, g, r_gamma, b_six):
    """(w_bar, T1, T2) from R_Gamma and b_Gamma."""
    q = kappa_over_2g(g)
    w_bar = (2 * g - 2 - inv.P + inv.P_minus1) / (g + 11)
    t1 = AffineInY(
        -q * (inv.v_top - 1) + b_six - inv.P_minus1 - q * r_gamma,
        Fraction(12 * (g - 1) * (inv.v_top - 1), g + 11) - b_six,
    )
    t2 = AffineInY(Fraction(inv.P, 2 * g - 1) - q, 12 * w_bar)
    return w_bar, t1, t2


def six_coefficients(inv, g):
    q = kappa_over_2g(g)
    r_gamma = (inv.b_NC + 1 + inv.delta_H) / inv.ell
    c_gamma = q * (inv.N_bot - r_gamma) - inv.kappa_bot
    w_gamma = (inv.kappa_bot / kappa_minimal(g) * (1 + Fraction(1, 2 * g - 1))
               - Fraction(1, 2 * g - 1) + Fraction(inv.v_top - 1, 2))
    w_ratio = 12 * w_gamma / Fraction(g + 11, 2 * g - 2)
    b_six = _b_gamma_six(inv, g)
    return SixCoefficients(g, c_gamma, r_gamma, b_six, w_ratio,
                           *split(inv, g, r_gamma, b_six))


def s_gamma_of(six):
    """s_Gamma = c_Gamma + b_Gamma + y (12 w_Gamma / w_lambda - b_Gamma)."""
    return AffineInY(six.c_gamma + six.b_gamma_six,
                     six.w_ratio_term - six.b_gamma_six)


def s_gamma_affine(inv, g):
    return s_gamma_of(six_coefficients(inv, g))


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


def _canonical_coeff(graph, inv):
    g = graph.genus
    kappa_bot = kappa_mu(graph.bottom_orders())
    coeff = -(inv.ell * kappa_bot - kappa_over_2g(g) * (inv.ell * inv.N_bot - 1))
    if inv.delta_H:
        coeff -= kappa_over_2g(g)
    return coeff


def wplus_w_gamma(graph):
    g = graph.genus
    kappa_bot = kappa_mu(graph.bottom_orders())
    kappa = kappa_minimal(g)
    return (kappa_bot / kappa * (1 + Fraction(1, 2 * g - 1))
            - Fraction(1, 2 * g - 1)
            + Fraction(graph.v_top - 1, 2))


def _identity_failures(graph, inv, six):
    g = graph.genus
    bad = [f"validate: {msg}" for msg in validate(graph)]
    if kappa_mu(graph.bottom_orders()) != inv.kappa_bot:
        bad.append("kappa_bot: direct signature evaluation != prong identity")
    if inv.N_top + inv.N_bot != 2 * g:
        bad.append("N_top + N_bot != 2g")
    if inv.N_bot != 2 * graph.bottom_genus + inv.edges - inv.v_top:
        bad.append("N_bot != 2 g_b + E - v_top")
    if inv.N_top != inv.P + inv.v_top:
        bad.append("N_top != P + v_top")
    if inv.b_NC != inv.ell * inv.R_NC - 1:
        bad.append("b_NC != ell * R_NC - 1")
    if inv.ell != lcm_list(inv.prongs):
        bad.append("ell != lcm of prongs")
    if kappa_mu(tuple(p - 1 for p in inv.prongs)) != inv.P - inv.P_minus1:
        bad.append("kappa_top != P - P_minus1")
    if any(v.genus < 1 for v in graph.top_vertices):
        bad.append("top vertex of genus 0 in a minimal-stratum graph")
    if RBT in inv.edge_classes:
        bad.append("RBT edge in a minimal-stratum graph")
    if is_rational_bottom_banana(graph):
        if inv.P != 2 * g - 2:
            bad.append("rational-bottom banana with P != 2g - 2")
    elif inv.P > 2 * g - 3:
        bad.append("P > 2g - 3 off the rational-bottom banana family")
    lhs = six.w_ratio_term
    rhs = 12 * (six.w_bar + Fraction((g - 1) * (inv.v_top - 1), g + 11))
    if lhs != rhs:
        bad.append("decomposition 12 w_Gamma / w_lambda != "
                   "12 (w_bar + (g-1)(v_top-1)/(g+11))")
    s_aff = s_gamma_of(six)
    t1, t2 = six.t1_affine, six.t2_affine
    for y in (Fraction(0), Fraction(1, 2), Fraction(1)):
        if t1(y) + t2(y) > s_aff(y):
            bad.append("T1 + T2 exceeds s_Gamma")
            break
    return bad


def graph_identity_failures(graph, hbb_shape_test=True):
    inv = graph_invariants(graph, hbb_shape_test)
    return _identity_failures(graph, inv, six_coefficients(inv, graph.genus))


def assembly_failures(graph, hbb_shape_test=True):
    inv = graph_invariants(graph, hbb_shape_test)
    return _assembly_failures(graph, inv, s_gamma_affine(inv, graph.genus))


def _assembly_affine(graph, inv):
    g = graph.genus
    q = kappa_over_2g(g)
    can = _canonical_coeff(graph, inv)
    w_term = 12 * wplus_w_gamma(graph) * inv.ell / wplus_w_lambda(g)
    b = _divisor_coeff(inv)
    return AffineInY(can - q * inv.b_NC + 2 * b, w_term - 2 * b)


def _assembly_failures(graph, inv, s_gamma, ys=DEFAULT_Y_SAMPLES):
    via_classes = _assembly_affine(graph, inv)
    via_certifier = AffineInY(s_gamma.intercept * inv.ell, s_gamma.slope * inv.ell)
    bad = []
    if (via_classes.intercept != via_certifier.intercept
            or via_classes.slope != via_certifier.slope):
        bad.append(f"assembled boundary coefficient mismatch on {inv.encoding}")
    else:
        for y in ys[:3]:
            if via_classes(y) != via_certifier(y):
                bad.append(f"assembled coefficient differs at y={y}")
                break
    return bad


# ---------------------------------------------------------------------------
# divisor classes


def _divisor_coeff(inv):
    """b_Gamma (odd genus) or h_Gamma (even genus): ell times the sum of the
    per-edge contributions."""
    g = inv.genus
    den, hor, sep = _divisor_integers(g)
    total = Fraction(0)
    for p, target in zip(inv.prongs, inv.delta_assignments):
        if target == DELTA_IRR:
            total += Fraction(hor, den * p)
        else:
            total += Fraction(6 * target * (g - target) * sep, den * p)
    return inv.ell * total


def scaled_canonical_class(g, graphs, hbb_shape_test=True):
    boundary = {}
    for graph in graphs:
        inv = graph_invariants(graph, hbb_shape_test)
        boundary[inv.encoding] = _canonical_coeff(graph, inv)
    return DivisorClass(lam=Fraction(12), d_h=-(1 + kappa_over_2g(g)), boundary=boundary)


def d_nc_class(g, graphs):
    return DivisorClass(boundary={inv.encoding: inv.b_NC
                                  for inv in map(graph_invariants, graphs)})


def divisor_class(g, graphs):
    """bn_class for odd g, hur_class for even g."""
    den, hor, _ = _divisor_integers(g)
    boundary = {}
    for graph in graphs:
        inv = graph_invariants(graph)
        boundary[inv.encoding] = -_divisor_coeff(inv)
    return DivisorClass(lam=Fraction(6), d_h=-Fraction(hor, den), boundary=boundary)


def wplus_class(g, graphs, form):
    boundary = {}
    for graph in graphs:
        inv = graph_invariants(graph)
        if form == "raw":
            boundary[inv.encoding] = -((inv.P - inv.P_minus1) / 8
                                       + Fraction(inv.v_top - 1, 2)) * inv.ell
        else:
            boundary[inv.encoding] = -wplus_w_gamma(graph) * inv.ell
    if form == "raw":
        return DivisorClass(lam=Fraction(-1), psi=(Fraction(g * (g - 1), 2) + 1,),
                            xi=Fraction(1), boundary=boundary)
    return DivisorClass(lam=wplus_w_lambda(g), d_h=-wplus_w_hor(g), boundary=boundary)


def gen_weierstrass_class(orders, alpha, graphs, form):
    """The bottom-level theta summed over each graph's own bottom legs:
    every leg takes the alpha of a signature entry of its order, and the
    edge legs take 0."""
    if form == "raw":
        return DivisorClass(lam=Fraction(-1), psi=tuple(Fraction(a * (a + 1), 2) for a in alpha),
                            xi=Fraction(1))
    kappa = kappa_mu(orders)
    v_theta = sum((Fraction(a * (a + 1), 2 * (m + 1)) for m, a in zip(orders, alpha)),
                  Fraction(0))
    boundary = {}
    for graph in graphs:
        inv = graph_invariants(graph)
        unused = list(zip(orders, alpha))
        theta_bot = Fraction(0)
        for m in graph.bottom_legs:
            _, a = unused.pop(next(i for i, (o, _) in enumerate(unused) if o == m))
            theta_bot += Fraction(a * (a + 1), 2 * (m + 1))
        kappa_bot = kappa_mu(graph.bottom_orders())
        boundary[inv.encoding] = -inv.ell * (kappa_bot / kappa * (1 + v_theta) - theta_bot)
    return DivisorClass(lam=(12 + 12 * v_theta - kappa) / kappa, d_h=-(1 + v_theta) / kappa,
                        boundary=boundary)


def class_context(genus, orders, graphs):
    ell, kappa_bot = {}, {}
    for graph in graphs:
        inv = graph_invariants(graph)
        ell[inv.encoding] = inv.ell
        kappa_bot[inv.encoding] = kappa_mu(graph.bottom_orders())
    return ClassContext(genus, tuple(orders), ell, kappa_bot)


def reduce_class(c, ctx):
    """The psi relations, then the tautological relation, one coordinate
    operation at a time."""
    lam, d_h, xi = c.lam, c.d_h, c.xi
    boundary = dict(c.boundary)
    for coeff, m in zip(c.psi, ctx.orders):
        if coeff:
            xi += coeff / (m + 1)
            for enc, ell in ctx.ell.items():
                boundary[enc] = boundary.get(enc, Fraction(0)) + coeff * ell / (m + 1)
    if xi:
        kappa = kappa_mu(ctx.orders)
        lam += 12 * xi / kappa
        d_h -= xi / kappa
        for enc, ell in ctx.ell.items():
            boundary[enc] = (boundary.get(enc, Fraction(0))
                             - xi * ell * ctx.kappa_bot[enc] / kappa)
    return DivisorClass(lam, d_h, (), Fraction(0), boundary)


def twist_improvement_bound(inv, alpha_bot, m_bot):
    return ((inv.ell // 2) * (Fraction(alpha_bot) - Fraction(m_bot) / 2)
            + Fraction(inv.ell, 8) * (inv.P - inv.P_minus1))


def class_with_twist_bounds(g, alpha, graphs):
    boundary = {}
    for enc, graph in graphs.items():
        if is_gamma1(graph, g):
            boundary[enc] = -(Fraction(g * (g - 1), 2) + 1)
            continue
        inv = graph_invariants(graph)
        gain = twist_improvement_bound(inv, sum(alpha), sum(graph.bottom_legs))
        boundary[enc] = -(gain + Fraction(inv.ell * (inv.v_top - 1), 2))
    psi = tuple(Fraction(a * (a + 1), 2) for a in alpha)
    return DivisorClass(lam=Fraction(-1), psi=psi, xi=Fraction(1), boundary=boundary)
