"""Exception hierarchy. Each error carries a short machine-readable code used by the CLI."""


class ChoquardError(Exception):
    """Base class for all solver errors."""

    code = "E-GENERIC"

    def __init__(self, message, **extra):
        super().__init__(message)
        for key, val in extra.items():
            setattr(self, key, val)


class GridMismatchError(ChoquardError):
    code = "E-GRID-MISMATCH"


class GridResolutionError(ChoquardError):
    """Grid too coarse or too large for the requested operation."""

    code = "E-GRID-RESOLUTION"


class FieldDataError(ChoquardError):
    """Non-finite samples, bad dump files, negative squared fields."""

    code = "E-FIELD-DATA"


class ConfigError(ChoquardError):
    """Malformed configuration; carries .line when tied to a config line."""

    code = "E-CONFIG"

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return "line %d: %s" % (self.line, base)
        return base


class OutsideScalingRegionError(ChoquardError):
    """State outside O = {q_a * V0 < 0}; Nehari projection undefined."""

    code = "E-OUTSIDE-O"


class ScalingClipError(ChoquardError):
    """scale_Tt would move significant mass across the box boundary."""

    code = "E-SCALING-CLIP"


class BarycenterUndefinedError(ChoquardError):
    code = "E-BARYCENTER-ZERO"


class DegenerateNehariError(ChoquardError):
    """|V0| below the N0 threshold: no transverse Nehari direction."""

    code = "E-NEHARI-DEGENERATE"


class RieszSolveError(ChoquardError):
    """Conjugate-gradient solve for the metric gradient failed; carries .residual."""

    code = "E-RIESZ"


class LineSearchError(ChoquardError):
    """Armijo backtracking exhausted; carries .result with the last iterate."""

    code = "E-LINESEARCH"


class StartFamilyError(ChoquardError):
    """Bump family construction failed (box too small, scaling guard hit)."""

    code = "E-START-FAMILY"


class AdmissibilityError(ChoquardError):
    code = "E-INADMISSIBLE"


class GroundStateError(ChoquardError):
    code = "E-GROUND-STATE"


# raised by a descent that has started; each carries .result with the last iterate
DESCENT_ERRORS = (
    LineSearchError,
    RieszSolveError,
    DegenerateNehariError,
    OutsideScalingRegionError,
)
