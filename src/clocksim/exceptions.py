"""Exception types shared across the toolkit.

Invalid arguments (bad shapes, out-of-range parameters, malformed input)
raise the builtin ValueError. The classes below mark *numerical* failure
modes that callers such as optimizers or the CLI may want to catch and
handle separately.
"""


class ClocksimError(Exception):
    """Base class for numerical/physical failure modes."""


class SingularPointError(ClocksimError):
    """Evaluation at a point where the signal slope vanishes."""


class DegenerateStateError(ClocksimError):
    """State carries no usable signal for the requested scheme."""


class NoInformationError(ClocksimError):
    """Fisher information is zero; no precision bound exists."""


class SingularOutcomeError(ClocksimError):
    """Measurement outcome with vanishing probability but finite sensitivity."""


class BracketingError(ClocksimError):
    """A shot-time search bracketed no optimum next to its best grid point."""
