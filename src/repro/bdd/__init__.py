"""Reduced ordered BDDs with complement edges."""

from .bdd import BDD, FALSE, TRUE, ref_complemented, ref_node, ref_not
from .from_aig import aig_to_bdd

__all__ = [
    "BDD",
    "FALSE",
    "TRUE",
    "ref_complemented",
    "ref_node",
    "ref_not",
    "aig_to_bdd",
]
