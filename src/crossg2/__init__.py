"""Exact-arithmetic toolkit for the R^7 cross-product algebra.

Builds the cross product and its 3-form over the field Q(r6, r10), the
14-dimensional derivation algebra, the Lie-triple-system machinery, the
catalogue of maximal subsystems of the 8-dimensional exceptional triple
system, and a batch verifier that checks every identity with zero
tolerance.
"""

from .scalar import ONE, SQRT6, SQRT10, SQRT15, ZERO, Scalar
from .linalg import Matrix, Subspace, char_poly, kernel, rank
from .cross7 import Octonion, cross, induced_bilinear, omega
from .g2alg import (Frame, d_operator, derivation_algebra, lambda_operator,
                    rho_operator)
from .lts import (LtsCarrier, TripleSystem, check_axioms, envelope_dim,
                  generated_subtriple, is_ideal, triple_in_lie)
from .catalog import (AssocSubalg, Grading, PrincipalTds, annihilator_subalg,
                      grading, intersection_profile, is_adapted,
                      is_associative, maximal_lts, maximality_probe,
                      principal_tds)
from .matmodel import (Projection, alpha, curvature_check, d_st, gr3_tangent,
                       in_ms_prime, m34_triple, metric, ms_tangent,
                       projection_onto, sl3_catalog, sl3_triple, to_sl3)

__version__ = "0.1.0"
