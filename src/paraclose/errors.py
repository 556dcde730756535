"""Exception types shared across the package."""


class ParacloseError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(ParacloseError):
    """Malformed or inconsistent input data (bad JSON shape, unknown ids,
    non-integer weights, cyclic relations where a partial order is required)."""


class StructureError(ParacloseError):
    """Input parses but violates a structural precondition of the chosen
    solver (not a semiorder, width exceeds 2, invalid tree decomposition).

    May carry a small witness of the violation in ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class LimitExceededError(ParacloseError):
    """A configured safety cap was hit (element count for the brute-force
    oracle, bag states of the treewidth solver)."""
