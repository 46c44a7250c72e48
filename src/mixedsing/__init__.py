"""mixedsing: singularity analysis for mixed polynomials f * conj(g).

Exact mixed-polynomial arithmetic, polar weighted-homogeneity detection,
discriminant geometry for holomorphic pairs, exact limit normal planes for
Thom probes along curves, and numeric Milnor scans for tube fibrations, with
a deterministic JSON CLI.
"""

from .core import (
    ComplexRational,
    ExponentPair,
    MixedPolynomial,
    WirtingerGradient,
    complex_point,
    from_pair,
)
from .discgeom import (
    IsolatedVerdict,
    LineComponent,
    LineReport,
    PlaneCurve,
    PuiseuxBranch,
    axis_shear,
    branch_restriction_singular,
    discriminant_curve,
    isolated_value_verdict,
    jacobian_det,
    line_components,
    parse_branch,
    shear_search,
    sing_decomposition,
)
from .milnorprobe import (
    ScanResult,
    TubeVerdict,
    milnor_residual,
    milnor_scan,
    sing_residual,
    tube_verdict,
)
from .parsing import (
    ParseError,
    SourceExpr,
    format_mixed,
    format_scalar,
    parse,
    parse_mixed,
)
from .polar import PolarSolution, PolarWeights, orbit_check, solve_polar
from .thomprobe import (
    CurveGerm,
    NormalFamily,
    ProbeResult,
    Stratum,
    default_curve_battery,
    limit_normal_plane,
    normal_family,
    normal_family_symbolic,
    pair_normal_family,
    thom_test,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexRational",
    "ExponentPair",
    "MixedPolynomial",
    "WirtingerGradient",
    "complex_point",
    "from_pair",
    "ParseError",
    "SourceExpr",
    "format_mixed",
    "format_scalar",
    "parse",
    "parse_mixed",
    "PolarSolution",
    "PolarWeights",
    "orbit_check",
    "solve_polar",
    "CurveGerm",
    "NormalFamily",
    "ProbeResult",
    "Stratum",
    "default_curve_battery",
    "limit_normal_plane",
    "normal_family",
    "normal_family_symbolic",
    "pair_normal_family",
    "thom_test",
    "IsolatedVerdict",
    "LineComponent",
    "LineReport",
    "PlaneCurve",
    "PuiseuxBranch",
    "axis_shear",
    "branch_restriction_singular",
    "discriminant_curve",
    "isolated_value_verdict",
    "jacobian_det",
    "line_components",
    "parse_branch",
    "shear_search",
    "sing_decomposition",
    "ScanResult",
    "TubeVerdict",
    "milnor_residual",
    "milnor_scan",
    "sing_residual",
    "tube_verdict",
    "__version__",
]
