"""Domain error hierarchy.

Every error deliberately raised by this package derives from FlagmapsError,
so callers (and the CLI) can separate domain failures from genuine bugs.
"""


class FlagmapsError(Exception):
    """Base class for all domain errors."""


class BadBoundError(FlagmapsError, ValueError):
    """A size or work bound outside its domain, such as a census bound
    below one flag."""
