"""Exception types shared across the package."""


class Conics92Error(Exception):
    """Base class for all package-specific errors."""


# -- scalar domain ------------------------------------------------------------

class ZeroElement(Conics92Error):
    """A nonzero field element was required."""


class UnsupportedField(Conics92Error):
    """The requested operation is not defined over this scalar domain."""


# -- quadratic form arithmetic -------------------------------------------------

class FieldMismatch(Conics92Error):
    """Operands live over different scalar domains."""


# -- projective geometry -------------------------------------------------------

class LineInPlane(Conics92Error):
    """The line lies inside the plane; there is no single intersection point."""


class NotInChart(Conics92Error):
    """The point lies outside the requested affine chart."""


# -- section evaluation ----------------------------------------------------------

class SingularZero(Conics92Error):
    """The Jacobian determinant vanishes at a zero of the section."""


# -- solver ---------------------------------------------------------------------

class CountMismatch(Conics92Error):
    """The solver did not find the expected number of solutions."""


class IncompleteSet(Conics92Error):
    """A complete solution set (92 zeros counted with conjugates) is required."""


# -- harness ----------------------------------------------------------------------

class TooLarge(Conics92Error):
    """Brute-force enumeration was requested beyond the feasibility guard."""


class DegenerateDraw(Conics92Error):
    """A random draw failed a validity check and must be resampled."""


class ExhaustedRetries(Conics92Error):
    """Rejection sampling did not produce a valid object within the retry budget."""


class BadReduction(Conics92Error):
    """Reduction mod p destroyed an invariant of the instance (bad prime)."""
