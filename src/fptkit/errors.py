"""Exception types shared across the package."""

__all__ = ["EngineError", "DomainError", "ParseError", "InfeasibleError", "NotMPrimaryError",
           "StabilityError"]


class EngineError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(EngineError):
    """An argument lies outside an operation's mathematical domain."""


class ParseError(EngineError):
    """Polynomial text that does not match the input grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class InfeasibleError(EngineError):
    """A bounded search exhausted its cap without producing an answer."""


class NotMPrimaryError(DomainError):
    """Length was requested for an ideal that is not primary to the origin."""


class StabilityError(DomainError):
    """A local ideal comparison failed its stabilization cross-check.

    Raised instead of returning a possibly wrong answer when the compared
    ideals do not satisfy the documented containment precondition.
    """
