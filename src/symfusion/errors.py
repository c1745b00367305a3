"""Exception types raised across the package.

Validation failures derive from :class:`ValueError` so callers can catch them
generically; resource refusals derive from :class:`RuntimeError`.
"""


class SymfusionError(Exception):
    """Base class for all package-specific errors."""


# --- partitions and tableaux -------------------------------------------------

class NotNonincreasingError(SymfusionError, ValueError):
    """Partition parts are not in nonincreasing order."""


class NonPositivePartError(SymfusionError, ValueError):
    """Partition contains a part < 1 (or no parts at all)."""


class NotInUpSetError(SymfusionError, ValueError):
    """Target shape is not obtained from the given shape by adding one box."""


class NotInDownSetError(SymfusionError, ValueError):
    """Shape is not obtained from the given shape by removing one box."""


class ParseError(SymfusionError, ValueError):
    """Text is not a well-formed partition or permutation."""


# --- permutations and representations ----------------------------------------

class SizeMismatchError(SymfusionError, ValueError):
    """Permutation degree does not match the expected n."""


class IndexOutOfRangeError(SymfusionError, ValueError):
    """Generator index k outside its valid range."""


class TooSmallError(SymfusionError, ValueError):
    """n is below the minimum the operation supports."""


class NotSymmetricError(SymfusionError, ValueError):
    """Partition is not equal to its transpose."""


class DegenerateShapeError(SymfusionError, ValueError):
    """Shape is too degenerate for the operation (e.g. a single box)."""


class OddDistinctPartsError(SymfusionError, ValueError):
    """Partition has an odd number of distinct parts where an even count is required."""


class BadTransversalError(SymfusionError, ValueError):
    """Supplied transversal violates t_k(n) = k (or evenness, where required)."""


# --- ensembles and analysis ---------------------------------------------------

class DegenerateParametersError(SymfusionError, ValueError):
    """(d, r, n) outside the domain of the requested bound."""


class NotIsometryError(SymfusionError, ValueError):
    """Matrix is not an isometry within tolerance."""


class NotUnitaryError(SymfusionError, ValueError):
    """Matrix is not unitary within tolerance."""


class NotTightError(SymfusionError, ValueError):
    """Ensemble is not a tight fusion frame within tolerance."""


class FullDimensionError(SymfusionError, ValueError):
    """d = rn leaves no room for a Naimark complement."""


# --- constructions -------------------------------------------------------------

class TrivialSubspaceError(SymfusionError, ValueError):
    """The selected isotypic component is the whole space."""


class EmptySelectionError(SymfusionError, ValueError):
    """Layer selection is empty."""


class NotTransposeClosedError(SymfusionError, ValueError):
    """Layer selection is not closed under partition transpose."""


class ConstraintViolationError(SymfusionError, ValueError):
    """Family parameters violate the family's integer constraints."""


class StepConstraintViolatedError(ConstraintViolationError):
    """Three-part family recipe step constraint violated."""


class DivisibilityViolatedError(ConstraintViolationError):
    """Four-part family divisibility constraint violated."""


class InconsistentFamilyError(SymfusionError, RuntimeError):
    """A family recipe or closed form disagrees with its exact certificate."""


class ResourceLimitError(SymfusionError, RuntimeError):
    """Requested construction exceeds the configured dimension cap."""


class EnsembleFormatError(SymfusionError, ValueError):
    """Ensemble file is malformed or inconsistent."""
