"""Typed error hierarchy used across the toolkit.

Every invalid input maps to one of these instead of a bare ValueError so
callers (and the CLI) can distinguish data problems from usage problems.
"""


class DerainKitError(ValueError):
    """Base class for all toolkit errors."""


class LengthMismatchError(DerainKitError):
    pass


class NonFiniteCoordinateError(DerainKitError):
    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"non-finite coordinate at index {self.index}")


class IntensityOutOfRangeError(DerainKitError):
    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"intensity outside [0, 1] at index {self.index}")


class InvalidInputError(DerainKitError):
    pass


class OriginPointError(DerainKitError):
    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"zero-norm point at index {self.index}")


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


class DegeneratePolygonError(DerainKitError):
    pass


class EmptySourceError(DerainKitError):
    pass


class EmptyDatasetError(DerainKitError):
    pass


class EmptySearchSpaceError(DerainKitError):
    pass


class TruncatedFileError(DerainKitError):
    pass


class InvalidClassError(DerainKitError):
    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"invalid class id at index {self.index}")


class InvalidMaskByteError(DerainKitError):
    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"mask byte other than 0 or 1 at index {self.index}")


class SchemaError(DerainKitError):
    def __init__(self, path, message=""):
        self.path = path
        detail = f": {message}" if message else ""
        super().__init__(f"schema error at {path}{detail}")
