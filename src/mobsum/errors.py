"""Exception hierarchy shared by all mobsum modules."""


class MobsumError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(MobsumError, ValueError):
    """A precondition on an argument was violated."""


class DomainError(MobsumError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(MobsumError, ValueError):
    """Requested point lies outside the available tables."""


class ResourceError(MobsumError, RuntimeError):
    """A cost guard (memory / panel count / sum length) was exceeded."""


class NoDescentError(MobsumError, RuntimeError):
    """The target shape never dominates the majorant."""


class PlanError(MobsumError, ValueError):
    """A conversion plan step is inconsistent with the ledger."""
