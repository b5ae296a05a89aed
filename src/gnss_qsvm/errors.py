"""Exception and warning types shared across the package: each error is a
``ValueError`` that names what was wrong with a caller's input, so the CSV
reader and the model reader re-raise any of them met while checking a row or
a document as ``CsvParseError`` or ``ModelFormatError``. Errors of the file
system (a missing file, a directory given as a file) stay ``OSError``."""


class DimensionError(ValueError):
    """Operands have incompatible shapes, lengths or qubit counts: scaler bounds and
    features, say, or a binary model's alpha, y and training indices."""


class DegenerateDataError(ValueError):
    """Data has no variation where variation is required."""


class CsvParseError(ValueError):
    """A CSV file does not conform to the sample schema."""


class InvalidLabelsError(ValueError):
    """Label set is unusable for training (no labels, one class; unknown, missing,
    unhashable or unsortable labels or classes), a sample's label is not a reception
    label, a model's classes are no list or unhashable, its binary models are not the
    one-vs-one pairs of its classes or have a label pair that is no list or tuple, a
    label being scored is unhashable or outside the class list, or a training or
    scored class list names a class twice."""


class InvalidSettingError(ValueError):
    """A setting is of the wrong type (a string for the training sources, a non-bool
    experiment ``raw``; a real setting, scaler targets and an experiment's gamma included
    whatever the model, must be a Python or numpy integer or float, not a ``bool``,
    ``np.longdouble``, ``Fraction``, ``Decimal`` or int beyond float range), out of range
    (a scaler's target interval, a grid resolution below 1, shots), not one of its allowed
    names (kernel mode, entanglement, preset, model, kernel), missing (training source, RBF
    gamma), or in conflict with another (a boundary grid on raw features)."""


class InvalidInputError(ValueError):
    """Input data is unusable: a feature, Gram entry, alpha, bias, C/N0 or elevation that is no
    finite number (a bool C/N0 or elevation too), a feature beyond 1e150 in magnitude or that
    scales to none, a bool, string, complex value or None in any array a caller passes, a
    negative alpha, a model's y not +-1, index that is no int or off its features, converged
    flag that is no bool or binary model that is no BinaryModel, an elevation outside [0, 90],
    an asymmetric Gram, a Dataset of non-samples, anything but a non-empty Dataset to scale,
    empty data to score, or unequal label counts."""


class ModelFormatError(ValueError):
    """A saved model document is of an unknown format or inconsistent."""


class ConvergenceWarning(UserWarning):
    """Dual solver hit its sweep cap before meeting the KKT tolerance."""
