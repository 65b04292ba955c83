"""Iterated path integrals of logarithmic forms on the universal vectorial
extension of an elliptic curve, with an exact reduced-bar-complex layer and
a genus-zero reference model."""

from .errors import (
    ConvergenceFailure,
    DegenerateCurve,
    DimensionBound,
    EllbarError,
    EndpointMismatch,
    FitInstability,
    GuardViolation,
    LatticeError,
    NearPole,
    NotAdmissible,
    ProbeInconsistency,
    QuadratureFailure,
    TruncationExceeded,
    UnknownSymbol,
)
from .wlattice import (
    CurveSpec,
    LatticeData,
    eisenstein,
    eta_lambda,
    lattice_from_curve,
    lattice_from_periods,
    latsum_truncation_bound,
    latsum_weierstrass,
    reduce_mod_lattice,
    wp,
    wsigma,
    wzeta,
)
from .barcx import (
    BarElement,
    DGAPresentation,
    bar_differential,
    deconcat,
    h0_basis,
    shuffle,
)
from .logforms import (
    ExtLattice,
    dga_presentation,
    f_batch,
    f_n,
    kernel_F,
    pullback_coeff,
    residue_expected,
    two_form_coeff,
)
from .kzbword import (
    NCPoly,
    ad_power,
    c_w,
    canonical_series,
    flatness_check,
    omega_kzb,
)
from .chenint import (
    ArcSeg,
    EdaggerModel,
    LineSeg,
    P1Model,
    PathSpec,
    TransportResult,
    chen_transport,
    compose_paths,
    eval_bar_element,
    homotopy_certificate,
    homotopy_report,
    line_path,
    loop_path,
    path_from_json,
    path_to_json,
    regularized_integral_p1,
    reverse_path,
    stokes_defect,
    surface_difference,
    translate_path,
)
from .p1model import MZVIndex, mzv_integral, mzv_series, p1_dga

__version__ = "0.1.0"
