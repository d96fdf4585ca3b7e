"""Exception hierarchy shared across the package."""


class RysLabError(Exception):
    """Base class for all ryslab errors."""


class StencilOutOfDomain(RysLabError):
    """The evaluation point is too close to the chart boundary for the stencil."""


class OrderTooHigh(RysLabError):
    """A derivative beyond the supported total order was requested."""


class MetricSingular(RysLabError):
    """The metric matrix is not invertible to the conditioning threshold."""


class NotSPD(RysLabError):
    """A metric failed the positive-definiteness check at a sampled point."""


class AlphaZero(RysLabError):
    """The requested conclusion needs a nonzero first coupling constant."""


class DegenerateBeta(RysLabError):
    """beta = 2*alpha degenerates the scalar-curvature prediction."""


class DegenerateDenominator(RysLabError):
    """A parameter combination zeroes a denominator required by the check."""


class NotASoliton(RysLabError):
    """The defining residual does not vanish, so derived identities do not apply."""


class NotCompact(RysLabError):
    """The operation needs a compact catalog entry with a quadrature atlas."""


class NotSteady(RysLabError):
    """The operation is defined only for steady instances (lambda == 0)."""


class GridTooCoarse(RysLabError):
    """The radial grid has too few nodes for the finite-difference stencils."""


class BeyondAntipode(RysLabError):
    """A sphere grid reaches the antipode r = pi * radius, where the warp vanishes."""


class NoConvergence(RysLabError):
    """The least-squares solve terminated above the residual tolerance.

    Carries the final iterate so callers can inspect how far the
    optimizer got.
    """

    def __init__(self, message, profile=None, residual_inf=None):
        super().__init__(message)
        self.profile = profile
        self.residual_inf = residual_inf
