"""Exact restriction of scalars for polynomially presented spaces.

The package computes presentations of Weil restrictions along finite free
ring extensions together with the supporting calculus: division-free
characteristic polynomials, integrality tests against rank-1 valuations,
spectral values and radii on an exact log scale, disc-restriction coefficient
ideals and Galois fixed-point descent.  Everything is verifiable against a
brute-force point oracle over small finite fields.
"""

from .errors import (DocumentError, EnumerationBoundError,
                     IncompatibleFieldError, TamenessError,
                     UnsupportedOperationError, WeilresError)
from .fields import (Field, FieldElement, FunctionField, GaloisField,
                     PrimeField, RationalField, canonical_embedding)
from .lognorm import LogNorm, MINUS_INF, lognorm_max
from .poly import Poly, PolyRing, gauss_norm, parse_poly
from .extensions import (AlgebraElement, FreeExtension, MonicPoly, charpoly,
                         extend_scalars, from_minimal_polynomial, is_integral,
                         is_nilpotent, mult_matrix, structure_table,
                         tensor_product)
from .restriction import (Presentation, RestrictionResult, base_change,
                          disc_generators, expand_element, points_over,
                          product, product_presentation, psi_apply, restrict)
from .spectral import (WitnessCertificate, coordinate_norm,
                       coordinate_norm_spread, non_quasicompact_witness,
                       power_norm_bound, spectral_radius, spectral_value,
                       spectral_value_product_check)
from .galois import (FixedPointPresentation, GroupAction, action_point_map,
                     cyclic_frobenius_action, diagonal_section, fixed_points,
                     validate_action, verify_descent)

__version__ = "0.1.0"
