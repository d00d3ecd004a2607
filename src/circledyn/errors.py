"""Exception types shared across the package."""


class CircledynError(Exception):
    """Base class for all package errors."""


class InputError(CircledynError):
    """Malformed definition file or CLI input."""


class DegenerateFamily(CircledynError):
    """A parameterized circle map fails the diffeomorphism condition
    1 + d/dtheta g_t(theta) > 0 somewhere."""


class DegenerateFiber(CircledynError):
    """A fiber map of a skew product fails 1 + d/dy g_t(x, y) > 0."""


class NoLockInBracket(CircledynError):
    """No parameter in the supplied bracket certifies the requested lock."""


class HypothesisViolation(CircledynError):
    """An experiment's standing hypotheses fail for the supplied inputs."""
