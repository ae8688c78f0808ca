"""Low-correlation binary sequence families from cyclic elliptic curves
over GF(2^n), with exact correlation and linear-complexity verification."""

from .analysis import (BoundViolationError, CorrelationReport,
                       LinearComplexityReport, corr_bound,
                       counting_identity_check, family_correlation,
                       family_linear_complexity, lc_bound_ceil, lc_bound_check)
from .curves import (Curve, CurveSearchSpec, Point, admissible_t,
                     ordered_points, search_cyclic_curve)
from .family import (FormatError, SequenceFamily, build_family, gen_family,
                     read_family, write_family)
from .gf2 import (ExtFieldContext, FieldContext, ValidationError, make_ext,
                  make_field)
from .places import (PlaceD, count_place_orbits, count_places_formula,
                     enumerate_places_deg_d, find_place)
from .rrspace import CurveFunction, RRSpace, eval_function, rr_basis

__version__ = "1.0.0"
