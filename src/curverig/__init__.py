"""curverig: distinct-value counting and structural rigidity on curves.

Core objects: parametrized curves (rational, helix, analytic), distance
polynomials, finite parameter point sets, Elekes curves with exact
resultant implicitization, framework flexibility analysis, the rigidity
function H with T-degeneracy scanning, and finite motion tracing.
"""

from .errors import (CurverigError, DegenerateParametrization,
                     DimensionMismatch, DisconnectedFramework, DomainError,
                     DomainExit, ExactnessUnavailable, InsufficientSamples,
                     JetOrderError, PoleError, SchemeMismatch, SingularH,
                     SingularParametrization)
from .rational import Poly, RationalFunction, as_fraction, count_real_roots, is_exact
from .curves import (AnalyticCurve, CurveSpec, HelixCurve, Interval,
                     RationalCurve, SimplicityReport, arc_length_reparametrize,
                     builtin_curve, check_simplicity, curve_from_json,
                     curve_to_json, is_exact_data, trig_ellipse)
from .quantity import (GeneralPolynomial, PinnedAreaSquared, QuantitySpec,
                       SquaredEuclidean, pairing, pairings, quantity_degree,
                       quantity_from_json, quantity_is_rational,
                       quantity_to_json)
from .counting import (ArithmeticProgression, CountResult, EquallySpacedAngle,
                       Exact, ExponentFit, GeometricProgression, ParamPointSet,
                       Tolerance, UniformRandom, count_distinct_values,
                       elekes_lower_bound, fit_exponent, generate_point_set,
                       parse_param, parse_scheme)
from .bipoly import BiPoly, square_free_part, sylvester_resultant
from .elekes import (AdmissibilityReport, ElekesCurve, IncidenceReport,
                     IntersectionReport, admissibility_scan, implicit_to_dict,
                     implicitize_rational, intersect_elekes_pair,
                     same_algebraic_curve, verify_incidence_invariant)
from .rigidity import (DegeneracyReport, FlexibilityResult, Framework,
                       complete_framework, eval_H, flexibility_matrix,
                       h_removable_value, infinitesimal_nullity,
                       scan_T_degeneracy, triangle)
from .motion import (DerivativeNormProfile, HelixClassification, MotionTrace,
                     RatioCertificate, classify_helix, derivative_norm_profile,
                     trace_framework_motion, trace_triangle_motion)

__version__ = "0.1.0"
