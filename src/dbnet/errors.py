"""Exception hierarchy shared across the package.

CLI exit codes: 0 ok, 1 LP solver failure, 2 infeasible, 3 cap exceeded,
4 invariant violation, 5 IO/parse.
"""


class DbnetError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class FormatError(DbnetError):
    """Malformed instance or report file."""

    exit_code = 5


class InfeasibleError(DbnetError):
    """The instance admits no feasible solution (e.g. unreachable terminal)."""

    exit_code = 2


class CapExceededError(DbnetError):
    """A configured size limit (node cap, oracle limit) was exceeded."""

    exit_code = 3


class InvariantError(DbnetError):
    """A structural invariant that should hold by construction was violated."""

    exit_code = 4


class SolverError(DbnetError):
    """The LP solver failed to produce a trustworthy answer."""

    exit_code = 1
