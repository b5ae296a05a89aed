"""Exception and warning types shared across the package: each error is a
``ValueError`` that names what was wrong with a caller's input."""


class DimensionError(ValueError):
    """Operands have incompatible shapes, lengths, or qubit counts."""


class DegenerateDataError(ValueError):
    """Data has no variation where variation is required."""


class CsvParseError(ValueError):
    """A CSV file does not conform to the sample schema."""


class InvalidLabelsError(ValueError):
    """Label set is unusable for training (single class, unknown or missing labels),
    or a model's binary models are not the one-vs-one pairs of its classes."""


class InvalidInputError(ValueError):
    """Input data is unusable: non-finite features or C/N0 values, or a
    Gram matrix that is not finite and symmetric."""


class ModelFormatError(ValueError):
    """A saved model document is of an unknown format or inconsistent."""


class ConvergenceWarning(UserWarning):
    """Dual solver hit its sweep cap before meeting the KKT tolerance."""
