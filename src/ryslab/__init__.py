"""Numerical laboratory for Ricci-Yamabe soliton geometry on coordinate charts.

The package represents metrics and potentials as closed-form component
functions, runs the full curvature pipeline through a nested forward-mode
differentiation core (exact to rounding up to fourth order), and checks
the defining soliton equations together with every identity they imply,
pointwise on catalog geometries and integrally on compact ones.
"""

from .errors import (
    AlphaZero,
    DegenerateBeta,
    DegenerateDenominator,
    GridTooCoarse,
    MetricSingular,
    NoConvergence,
    NotASoliton,
    NotCompact,
    NotSPD,
    NotSteady,
    OrderTooHigh,
    RysLabError,
    StencilOutOfDomain,
)
from .geometry import (
    ChartDomain,
    ChartPoint,
    MetricField,
    OneFormField,
    PointBatch,
    ScalarField,
    VectorField,
    partial_derivative,
    sample_points,
)
from .curvature import (
    Sym2Tensor,
    curvature_data,
    ricci,
    ricci_operator,
    scalar_curvature,
)
from .soliton import (
    SolitonClass,
    SolitonInstance,
    SolitonKind,
    SolitonParams,
    classify,
    concircular_conclusions,
    concircular_defect,
    defining_residual,
)

__version__ = "0.1.0"
