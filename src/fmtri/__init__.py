"""Exact enumeration for cluster fans and noncrossing partition lattices.

Computes F-triangles (cone counts of cluster fans refined by positive and
negated-simple spanning roots) and M-triangles (rank-weighted Moebius
generating functions of noncrossing partition lattices) for finite
crystallographic root systems, and verifies the conjectured change of
variables relating the two.  All arithmetic is exact.
"""

from .cartan import (
    CartanType,
    CoxeterInvariants,
    RootSystemSpec,
    delete_node,
    invariants,
    parse_spec,
    parse_type,
)
from .conjecture import conjecture_rhs, verify_conjecture
from .errors import ComputationTimeout, InvariantViolation, SpecError
from .ftriangle import (
    f_triangle,
    f_vector,
    h_vector,
    natural_f_vector,
    positive_f_vector,
)
from .poly import BivarPoly, conjecture_substitution
from .weyl import (
    NCLattice,
    ReflectionRep,
    build_nc_lattice,
    build_rep,
    invariant_formulas,
    nc_lattice,
    rank_generating_function,
)

__version__ = "0.1.0"
