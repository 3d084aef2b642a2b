"""Exception types shared across the toolkit."""


class DataError(ValueError):
    """Input the toolkit refuses; the CLI exits 2 on it.  Any other exception
    is a bug."""


class ShapeError(DataError):
    """Container dimensions do not match what an operation requires."""


class FormatError(DataError):
    """A file (LUVC1 grid, JSON document, PGM/PPM image) is malformed."""


class ScheduleError(DataError):
    """A compression schedule violates its structural constraints."""


class ProjectorCompatibilityError(ShapeError):
    """Token layout cannot be folded by the pixel-shuffle projector.

    Raised when grid dims are not divisible by the shuffle factor, which is
    exactly what happens to token sets produced by 1D (flat) merging: they
    lose the rectangular structure the projector depends on.
    """
