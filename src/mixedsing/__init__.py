"""mixedsing: singularity analysis for mixed polynomials f * conj(g).

Exact mixed-polynomial arithmetic, polar weighted-homogeneity detection,
discriminant geometry for holomorphic pairs, exact limit normal planes for
Thom probes along curves, and tube/Thom verdicts that name the route that
decided them, with a deterministic JSON CLI.  Every verdict comes from
exact criteria, and no module imports numpy.
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
from .parsing import (
    ParseError,
    SourceExpr,
    format_mixed,
    format_scalar,
    parse,
    parse_mixed,
)
from .polar import PolarSolution, PolarWeights, solve_polar
from .thomprobe import (
    CurveGerm,
    CurveProbe,
    NormalFamily,
    ProbeResult,
    Stratum,
    default_curve_battery,
    limit_normal_plane,
    normal_family_symbolic,
    thom_test,
)
from .verdict import TubeVerdict, tube_verdict

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
    "solve_polar",
    "CurveGerm",
    "CurveProbe",
    "NormalFamily",
    "ProbeResult",
    "Stratum",
    "default_curve_battery",
    "limit_normal_plane",
    "normal_family_symbolic",
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
    "TubeVerdict",
    "tube_verdict",
    "__version__",
]
