"""Exception hierarchy. Each error carries a short machine-readable code and
the exit status the CLI returns for it: 2 a configuration error, 3 no
convergence, 4 anything else."""


class ChoquardError(Exception):
    """Base class for all solver errors."""

    code = "E-GENERIC"
    exit_code = 4

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
    exit_code = 2

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
    exit_code = 2


class BarycenterUndefinedError(ChoquardError):
    code = "E-BARYCENTER-ZERO"


class DegenerateNehariError(ChoquardError):
    """|V0| below the N0 threshold: no transverse Nehari direction."""

    code = "E-NEHARI-DEGENERATE"
    exit_code = 3


class RieszSolveError(ChoquardError):
    """Conjugate-gradient solve for the metric gradient failed; carries .residual."""

    code = "E-RIESZ"
    exit_code = 3


class LineSearchError(ChoquardError):
    """Armijo backtracking exhausted; carries .result with the last iterate."""

    code = "E-LINESEARCH"
    exit_code = 3


class StartFamilyError(ChoquardError):
    """Bump family construction failed (grid too coarse, box too small, no start in O)."""

    code = "E-START-FAMILY"
    exit_code = 2


class AdmissibilityError(ChoquardError):
    code = "E-INADMISSIBLE"
    exit_code = 2


class GroundStateError(ChoquardError):
    code = "E-GROUND-STATE"
    exit_code = 3


# raised by a descent that has started; each carries .result with the last iterate
DESCENT_ERRORS = (
    LineSearchError,
    RieszSolveError,
    DegenerateNehariError,
    OutsideScalingRegionError,
)
