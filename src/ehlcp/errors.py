"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, CapExceeded -> 3,
InvariantError -> 4.
"""


class InputError(ValueError):
    """Malformed or shape-inconsistent input data."""


class DimensionError(InputError):
    """Operands with incompatible dimensions."""


class CapExceeded(RuntimeError):
    """A resource guardrail was hit; the message names the cap and its limit.
    Every cap is a fixed constant with no override; Python's int-to-string
    digit limit bounds reported numbers."""


class UndecidedSize(CapExceeded):
    """A decision procedure refused to run above its size cap.

    Raised instead of guessing: the verdict is 'undecided: size', never a
    silent default.
    """


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, never a property of the input."""
