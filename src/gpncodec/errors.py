"""Exception types shared across the package.

Argument validation raises plain ``ValueError`` (or the subclasses below
that refine it); everything that can go wrong while decoding untrusted
data raises a ``GpnError`` subclass so callers can catch one family.
"""


class GpnError(Exception):
    """Base class for data errors raised by this package."""


class NotRepresentableError(GpnError, ValueError):
    """The value has no representation at the requested width."""


class InfeasibleMultiplicitiesError(ValueError):
    """Class multiplicities do not sum to the alphabet size."""


class ClassOverflowError(ValueError):
    """A class was assigned more codes than distinct words of its length."""


class BitAlignmentError(ValueError):
    """Bit string length is not a multiple of the symbol width."""


class DecodeError(GpnError):
    """Base class for errors while decoding a core/flag/payload stream."""


class MalformedFlagError(DecodeError):
    """Flag stream does not parse as a sequence of flag codewords."""


class CorruptStreamError(DecodeError):
    """Core and flag channels are mutually inconsistent."""


class UnknownCodewordError(DecodeError):
    """A decoded (class, code) pair is not present in the codebook."""


class InvalidChunkError(DecodeError):
    """A payload word evaluates outside the source alphabet's range."""


class ContainerError(GpnError):
    """Base class for container parsing failures. `field` and `offset` name
    the field and byte offset where `bitio.read_container` stopped, else None."""

    def __init__(self, message: str = "", field: str | None = None,
                 offset: int | None = None):
        super().__init__(message)
        self.field, self.offset = field, offset


class BadMagicError(ContainerError):
    """Leading bytes are not the container magic."""


class BadVersionError(ContainerError):
    """Unsupported container version byte."""


class TruncatedSectionError(ContainerError):
    """Container ended before a declared field or section was complete."""


class LengthOverflowError(ContainerError):
    """A declared bit length exceeds the bytes actually available."""


class ContainerFormatError(ContainerError):
    """A header field holds a value outside its allowed range."""
