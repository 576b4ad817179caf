"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class DomainError(ValueError):
    """An argument is outside the supported domain (e.g. k0sq <= 0)."""


class NumericalBreakdownError(ArithmeticError):
    """A node's Schur denominator was not safely positive; `node_index` names it, from 1.

    A Cholesky pivot of H H^T + k0sq I at node n is node n's denominator, so
    this one error covers the start, the oracle, BASELINE and every step.
    """

    def __init__(self, message, node_index):
        super().__init__(message)
        self.node_index = node_index

    def __reduce__(self):  # the index is required, so unpickling must pass it back
        return type(self), (*self.args, self.node_index)


class CsvParseError(ValueError):
    """A CSV file could not be parsed; carries 1-based line/column."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
