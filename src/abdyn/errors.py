"""Shared exception types.

Exit-code mapping used by the CLI: schema errors -> 2, contract errors -> 3,
numeric indeterminacy -> 4.
"""


class AbdynError(Exception):
    """Base class for all library errors."""


class ContractError(AbdynError, ValueError):
    """A precondition or data invariant was violated by the caller."""


class DimensionError(ContractError):
    """Shapes or sizes do not match."""


class SchemaError(AbdynError, ValueError):
    """Malformed or schema-invalid external input (JSON payloads), or a
    file named on the command line that cannot be read or written."""


class NumericIndeterminacyError(AbdynError, ArithmeticError):
    """A floating-point decision (rank, root finding) fell inside the
    indeterminacy band and cannot be trusted at the requested tolerance."""
