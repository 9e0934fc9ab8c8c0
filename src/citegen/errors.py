"""Exception types shared across the toolkit.

Each class maps to one CLI exit code; see ``citegen.cli``.
"""


class CitegenError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CitegenError):
    """Invalid configuration value or combination."""


class VocabTooSmall(ConfigError):
    """Requested vocabulary size cannot hold the reserved token prefix."""


class MaxRefsExceeded(CitegenError):
    """A citation group names more distinct documents than supported."""


class SplitTooSmall(CitegenError):
    """Too few instances to assign train/valid/test splits."""


class ClassMissing(CitegenError):
    """A training set lacks examples for at least one intent class."""


class EmptyEvalSet(CitegenError):
    """An evaluation was requested on an empty collection."""


class ShapeError(CitegenError):
    """A tensor does not match the shape or id range required by the model config."""


class NumericalError(CitegenError):
    """Loss became non-finite or training diverged."""


class DataError(CitegenError):
    """A file's contents are malformed; the message names the file, or the
    record at fault where the file is not known."""


class AlignmentError(CitegenError):
    """Prediction and reference files do not cover the same instance ids."""
