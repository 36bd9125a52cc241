"""Exact-arithmetic oracles and solver for the extended horizontal LCP.

Everything computes over rationals: tuple properties (column W, W0, ND-W,
column sufficient-W and its cone variant), single-matrix classes (Z, M, P,
nondegenerate, column sufficient), a column-selector solver returning the
full polyhedral solution structure, and a seeded theorem-verification
harness.
"""

__version__ = "0.1.0"

from .classes import (
    is_column_sufficient,
    is_m,
    is_nondegenerate,
    is_p,
    is_z,
)
from .csw import (
    check_column_ndw_def,
    check_cone_csw,
    check_csw,
    check_x_column_sufficiency,
)
from .errors import CapExceeded, DimensionError, InputError, UndecidedSize
from .harness import (
    GenSpec,
    gen_instance,
    gen_tuple,
    verify_theorem,
)
from .rational import (
    identity,
    mat,
    rat,
    vec,
)
from .representatives import (
    MatrixTuple,
    PropertyVerdict,
    check_column_ndw_det,
    check_column_w,
    check_column_w0,
    make_tuple,
    selector_count,
    selectors,
)
from .solver import (
    EhlcpInstance,
    SolutionPiece,
    is_solution,
    solve_all,
)
