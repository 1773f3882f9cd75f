"""Exact cube recurrence on rhombus tilings of zonogons."""

from .zonogon import (
    ZonogonSpec,
    Tiling,
    validate_tiling,
    t_min,
    tiling_through_vertex,
    tiling_with_cube_faces,
    phi,
)
from .flips import (
    FlipMove,
    FlipError,
    CapExceeded,
    fundamental_forest,
    apply_move,
    enumerate_tilings,
    random_tiling,
    normalize_to_min,
    connect,
)
from .laurent import LaurentPoly, InexactDivision
from .engine import (
    RATIONAL,
    LAURENT,
    TROPICAL,
    DOMAINS,
    Labeling,
    DomainError,
    initial_labeling,
    symbolic_labeling,
    flip_value,
    evaluate_path,
    extension_moves,
    extend_to_lattice,
    verify_cube_relations,
)
from .tropical import (
    Wall,
    canonical_cutcurve,
    validate_cutcurve,
    cutcurve_points,
    elementary_move,
    all_cutcurves,
    w_inequalities_hold,
    check_propagation,
)
from .spinor import (
    Spinor,
    IsotropicSubspace,
    SpinorError,
    eps,
    eps_dual,
    clifford_act,
    bilinear_form_B,
    pure_spinor,
    purity_check,
    complete_isotropic_pair,
    spin_coordinates,
    verify_trbi,
    trbi_residuals,
    sign_twist,
    pfaffian,
    isotropic_from_skew,
    random_isotropic_subspace,
)
from .svg import render_svg

__version__ = "0.1.0"
