"""Shared exception types."""


class NumericalError(RuntimeError):
    """A numeric result failed a consistency check (imaginary residue,
    trace mismatch, solver trouble). Distinct from bad usage so the
    command line can map it to its own exit code."""
