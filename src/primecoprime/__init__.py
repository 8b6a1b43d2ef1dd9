"""Prime coprime graphs of cyclic, dihedral and dicyclic groups.

The graph of a finite group joins two distinct elements whenever the gcd of
their orders is 1 or a prime.  This package builds these graphs, evaluates
the known closed forms (clique number, vertex degrees, Hamiltonicity,
H-join decompositions), and checks every closed form against brute-force
oracles.  The root re-exports the names of the README's library example;
everything else is imported from its module.
"""

from .closedforms import (
    catalog_partition,
    clique_number,
    decomposition_catalog,
    is_hamiltonian,
    is_hamiltonian_dicyclic,
    theta_degree,
    theta_degrees,
)
from .groups import Family, cyclic, dicyclic, dihedral
from .oracles import max_clique
from .pcgraph import build_theta

__all__ = [
    "catalog_partition",
    "clique_number",
    "decomposition_catalog",
    "is_hamiltonian",
    "is_hamiltonian_dicyclic",
    "theta_degree",
    "theta_degrees",
    "Family",
    "cyclic",
    "dicyclic",
    "dihedral",
    "max_clique",
    "build_theta",
]

__version__ = "0.1.0"
