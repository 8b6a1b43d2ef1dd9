"""Prime coprime graphs of cyclic, dihedral and dicyclic groups.

The graph of a finite group joins two distinct elements whenever the gcd of
their orders is 1 or a prime.  This package builds these graphs, evaluates
the known closed forms (clique number, vertex degrees, Hamiltonicity,
H-join decompositions), and checks every closed form against brute-force
oracles.
"""

from .closedforms import (
    DecompositionEntry,
    catalog_partition,
    clique_cyclic,
    clique_number,
    decomposition_catalog,
    is_hamiltonian,
    is_hamiltonian_cyclic,
    is_hamiltonian_dicyclic,
    is_hamiltonian_dihedral,
    theta_degree,
    theta_degrees,
)
from .groups import (
    Family,
    GroupElement,
    GroupSpec,
    cyclic,
    dicyclic,
    dihedral,
    element_order,
    elements,
    is_epo,
    parse_element,
)
from .numtheory import (
    Factorization,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    phi_sum_expansion,
)
from .oracles import (
    BudgetExceededError,
    CliqueResult,
    HamiltonicityEvidence,
    Verdict,
    dirac_check,
    dominating_vertices,
    hamiltonian_search,
    max_clique,
)
from .pcgraph import (
    CapacityError,
    SimpleGraph,
    build_theta,
    complete,
    component_count,
    empty_graph,
    graph_to_dot,
    graph_to_json,
    join,
    verify_hjoin_structure,
)

__all__ = [
    "DecompositionEntry",
    "catalog_partition",
    "clique_cyclic",
    "clique_number",
    "decomposition_catalog",
    "is_hamiltonian",
    "is_hamiltonian_cyclic",
    "is_hamiltonian_dicyclic",
    "is_hamiltonian_dihedral",
    "theta_degree",
    "theta_degrees",
    "Family",
    "GroupElement",
    "GroupSpec",
    "cyclic",
    "dicyclic",
    "dihedral",
    "element_order",
    "elements",
    "is_epo",
    "parse_element",
    "Factorization",
    "divisors",
    "euler_phi",
    "factorize",
    "is_prime",
    "phi_sum_expansion",
    "BudgetExceededError",
    "CliqueResult",
    "HamiltonicityEvidence",
    "Verdict",
    "dirac_check",
    "dominating_vertices",
    "hamiltonian_search",
    "max_clique",
    "CapacityError",
    "SimpleGraph",
    "build_theta",
    "complete",
    "component_count",
    "empty_graph",
    "graph_to_dot",
    "graph_to_json",
    "join",
    "verify_hjoin_structure",
]

__version__ = "0.1.0"
