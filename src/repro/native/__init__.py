"""The native backend's platform probe (real rewiring via ctypes mmap)."""

from .rewiring import RewiringUnsupportedError, is_supported

__all__ = [
    "is_supported",
    "RewiringUnsupportedError",
]
