"""CDCL SAT solving and CNF encodings of AIGs."""

from .solver import Solver, luby
from .cnf import AigCnf, implies, is_satisfiable

__all__ = [
    "Solver",
    "luby",
    "AigCnf",
    "implies",
    "is_satisfiable",
]
