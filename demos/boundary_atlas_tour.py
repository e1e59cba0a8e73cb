"""A tour of the boundary-graph atlas at small genus.

Walks through enumeration, canonical encodings, per-graph invariants and
the edge taxonomy, then shows counting and random access at a genus where
streaming every graph would already be unpleasant.
"""

from fractions import Fraction

from stratacert import (
    atlas_count,
    atlas_unrank,
    canonical_encoding,
    enumerate_level_graphs,
    graph_invariants,
    rational_str,
    sample_atlas,
    validate,
)


def rational(pair):
    """An invariant's (numerator, denominator) pair as ``p/q``."""
    return rational_str(Fraction(*pair))


GENUS = 5

print(f"=== the genus-{GENUS} atlas ===")
atlas = list(enumerate_level_graphs(GENUS))
print(f"{len(atlas)} coarse types; every one passes the invariant battery:",
      all(validate(g) == [] for g in atlas))
print()

print("the first few graphs with their invariants:")
for graph in atlas[:6]:
    inv = graph_invariants(graph)
    print(f"  {inv.encoding}")
    print(f"    P={inv.P}  P_inv={rational(inv.P_minus1)}  ell={inv.ell}  "
          f"N_top={inv.N_top}  N_bot={inv.N_bot}")
    print(f"    kappa_bot={rational(inv.kappa_bot)}  b_NC={rational(inv.b_NC)}  "
          f"delta_H={inv.delta_H}  edges={'|'.join(inv.edge_classes)}")
print()

print("counts without enumerating (and with the dimension filter off):")
for g in (5, 10, 20, 31, 34):
    print(f"  genus {g}: {atlas_count(g)} coarse types "
          f"({atlas_count(g, dimension_filter=False)} before the filter)")
print()

print("random access by rank (no predecessors enumerated):")
total = atlas_count(31)
for rank in (0, total // 2, total - 1):
    graph = atlas_unrank(31, rank)
    print(f"  rank {rank}: {canonical_encoding(graph)}")
print()

print("a deterministic spread sample is how the identity suites probe "
      "large atlases:")
for graph in sample_atlas(31, 5):
    print(f"  {canonical_encoding(graph)}")
