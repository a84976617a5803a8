"""Platform probe and shared helpers of the native backend.

The paper's mechanism — main-memory files plus ``mmap(MAP_FIXED)``
rewiring — is "fully supported by the vanilla Linux kernel" and needs no
root privileges.  :class:`~repro.substrate.native.NativeSubstrate` runs
the whole stack on it; this module holds what that backend needs before
it can start: the support probe, the main-memory file opener and the
errno helper.
"""

from __future__ import annotations

import ctypes
import os
import tempfile

from ..vm.constants import PAGE_SIZE
from .platform import libc


class RewiringUnsupportedError(RuntimeError):
    """Raised when the platform cannot do user-space rewiring."""


def is_supported() -> bool:
    """Whether real rewiring works on this platform.

    Requires a Linux libc with mmap, a hardware page size matching the
    simulated :data:`~repro.vm.constants.PAGE_SIZE` (rewiring happens at
    page granularity, so the two must agree), and a working main-memory
    file source (memfd or a writable /dev/shm).
    """
    if libc() is None:
        return False
    try:
        if os.sysconf("SC_PAGE_SIZE") != PAGE_SIZE:
            return False
    except (ValueError, OSError):  # pragma: no cover - exotic libc
        return False
    try:
        fd = _open_memory_file("repro-probe")
    except RewiringUnsupportedError:
        return False
    try:
        os.ftruncate(fd, PAGE_SIZE)
    except OSError:
        return False
    finally:
        os.close(fd)
    return True


def _open_memory_file(name: str) -> int:
    """Open a fresh main-memory file: the user-space handle to physical pages.

    Prefers ``memfd_create`` (an anonymous memory-backed file); falls
    back to an unlinked tmpfs file under ``/dev/shm``.
    """
    if hasattr(os, "memfd_create"):
        try:
            return os.memfd_create(name)
        except OSError:
            pass
    if os.path.isdir("/dev/shm"):
        try:
            fd, path = tempfile.mkstemp(dir="/dev/shm", prefix="repro-")
            os.unlink(path)
            return fd
        except OSError:
            pass
    raise RewiringUnsupportedError(
        "neither memfd_create nor a writable /dev/shm is available"
    )


def _errno_error(what: str) -> OSError:
    err = ctypes.get_errno()
    return OSError(err, f"{what} failed: {os.strerror(err)}")
