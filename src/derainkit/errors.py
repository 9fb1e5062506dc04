"""Typed error hierarchy used across the toolkit.

Every invalid input maps to one of these instead of a bare ValueError so
callers (and the CLI) can distinguish data problems from usage problems.
"""


class DerainKitError(ValueError):
    """Base class for all toolkit errors."""


class IndexedError(DerainKitError):
    """An error about one item of a sequence, named by its ``index``; ``problem`` says what."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"{self.problem} at index {self.index}")


class FieldError(DerainKitError):
    """A value's array ``field`` given in a size or kind that its shape or dtype cannot take."""

    def __init__(self, field, problem):
        self.field = field
        super().__init__(f"field {field}: {problem}")


class NonFiniteCoordinateError(IndexedError):
    problem = "non-finite coordinate"


class IntensityOutOfRangeError(IndexedError):
    problem = "intensity outside [0, 1]"


class InvalidInputError(DerainKitError):
    pass


class LengthMismatchError(InvalidInputError):
    """Two sequences that pair item by item, such as a cloud and its labels, differ in length."""


class OriginPointError(IndexedError):
    problem = "zero-norm point"


class EmptyTableError(DerainKitError):
    pass


class EmptyCalibrationError(DerainKitError):
    pass


class UnknownSceneError(DerainKitError):
    pass


class InvalidSpecError(DerainKitError):
    pass


class NonPositiveRateError(DerainKitError):
    pass


class DegenerateBoundsError(DerainKitError):
    pass


class EmptyIndexError(DerainKitError):
    pass


class TooFewPointsError(DerainKitError):
    pass


class TooLargeError(DerainKitError):
    pass


class NoValidHypothesisError(DerainKitError):
    pass


class DegeneratePolygonError(InvalidSpecError):
    """A road polygon that is not simple, has fewer than 3 vertices or overflows."""


class EmptySourceError(DerainKitError):
    pass


class EmptyDatasetError(DerainKitError):
    pass


class EmptySearchSpaceError(DerainKitError):
    pass


class TruncatedFileError(DerainKitError):
    pass


class InvalidClassError(IndexedError):
    problem = "invalid class id"


class InvalidMaskByteError(IndexedError):
    problem = "mask byte other than 0 or 1"


class SchemaError(DerainKitError):
    def __init__(self, path, message=""):
        self.path = path
        detail = f": {message}" if message else ""
        super().__init__(f"schema error at {path}{detail}")
