"""Tightness certificates: one degree below the bound, no keeping tree.

Each construction sits exactly one below a theorem's minimum-degree bound.
The exhaustive oracle enumerates every embedding of the target tree and
confirms that no deletion preserves the property, certifying that the
bound cannot be lowered.
"""

from cographs import (
    analyze,
    exhaustive_keeping_search,
    materialize,
    named_tree,
    tight_example,
)
from cographs.embedding import Preserved
from cographs.oracle import ProvenNone


def certify(title, example, tree_spec, prop):
    G = materialize(example.cotree)
    rep = analyze(example.cotree)
    result = exhaustive_keeping_search(G, named_tree(tree_spec), prop)
    verdict = (f"ProvenNone after {result.examined} embeddings"
               if isinstance(result, ProvenNone) else "FOUND (unexpected!)")
    print(f"== {title} ==")
    print(f"  graph  : {example.expression}  "
          f"(kappa={rep.kappa}, delta={rep.delta})")
    print(f"  search : {verdict}")
    print()


certify("complete graph one below the vertex-deletion bound",
        tight_example("th1case1", k=2, m=2), "path:2",
        Preserved("k_connected", 2))

certify("two split halves, one below the small-primary bound",
        tight_example("th1case2", k=4, m=1), "path:1",
        Preserved("k_connected", 4))

certify("triple clique plus hubs, one below the large-primary bound",
        tight_example("th1case4", k=1, m=2), "path:2",
        Preserved("k_connected", 1))

certify("paired cliques, one below the super-keeping bound",
        tight_example("superkeeptight", m=2), "star:2",
        Preserved("super_edge_connected"))

certify("triple clique plus hub: connectivity itself is unkeepable",
        tight_example("maxedgekeeptight", m=2), "path:2",
        Preserved("k_connected", 1))

print("Large-window constructions (generated and analysis-checked; their")
print("exhaustive certificates exceed desk scale):")
for kind, k, m in (("th1case3", 6, 5), ("th2tight", 3, 1)):
    ex = tight_example(kind, k=k, m=m)
    rep = analyze(ex.cotree)
    print(f"  {kind}(k={k}, m={m}): {ex.expression}  "
          f"kappa={rep.kappa} delta={rep.delta}")
