"""Error types raised by the simulated virtual-memory subsystem."""


class VmError(Exception):
    """Base class for all virtual-memory subsystem errors."""


class MapError(VmError):
    """A mapping request could not be satisfied (bad flags, overlap, ...)."""


class BadAddressError(VmError):
    """An address was accessed that is not backed by any mapping."""


class OutOfMemoryError(VmError):
    """The physical memory capacity would be exceeded."""


class FileError(VmError):
    """A main-memory file operation failed (bad page index, resize, ...)."""


class ProcMapsError(VmError):
    """A /proc/PID/maps line could not be parsed."""


class ProtectionError(VmError):
    """An access violated a mapping's permissions (a segfault)."""
