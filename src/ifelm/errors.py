"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class DomainError(ValueError):
    """An argument is outside the supported domain (e.g. k0sq <= 0)."""


class SingularMatrixError(ArithmeticError):
    """A symmetric factorization failed; `pivot_index` names the first non-positive pivot."""

    def __init__(self, message, pivot_index):
        super().__init__(message)
        self.pivot_index = pivot_index

    def __reduce__(self):  # the index is required, so unpickling must pass it back
        return type(self), (*self.args, self.pivot_index)


class NumericalBreakdownError(ArithmeticError):
    """A step's Schur denominator was not safely positive; `node_index` names the node."""

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
