"""Linux mmap ABI surface shared by every native-backend component.

The ``MAP_*`` / ``PROT_*`` literals below are the values of the Linux
userspace ABI on the architectures CPython runs on (x86-64 and aarch64
share them for this subset).  They are meaningless on other platforms,
so everything here is guarded: on non-Linux systems the constants are
``None`` and :func:`libc` returns ``None``, which makes
``is_supported()`` report ``False`` long before any of the values could
be used in a syscall.

This is the *single* definition site — both the support probe
(:mod:`repro.native.rewiring`) and
:class:`~repro.substrate.native.NativeSubstrate` import from here
instead of re-declaring the literals.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import sys

#: Whether this platform speaks the Linux mmap ABI at all.  Every
#: constant and binding below is only valid when this is True.
IS_LINUX = sys.platform.startswith("linux")

if IS_LINUX:
    PROT_NONE = 0x0
    PROT_READ = 0x1
    PROT_WRITE = 0x2

    MAP_SHARED = 0x01
    MAP_PRIVATE = 0x02
    MAP_FIXED = 0x10
    MAP_ANONYMOUS = 0x20
    #: Populate page tables eagerly (read-ahead for file mappings) —
    #: the kernel-side counterpart of the simulator's ``populate=True``.
    MAP_POPULATE = 0x8000
else:  # pragma: no cover - exercised only off-Linux
    PROT_NONE = PROT_READ = PROT_WRITE = None
    MAP_SHARED = MAP_PRIVATE = MAP_FIXED = MAP_ANONYMOUS = MAP_POPULATE = None

#: mmap(2)'s error return, compared against the raw c_void_p value.
MAP_FAILED = ctypes.c_void_p(-1).value


def _load_libc() -> "ctypes.CDLL | None":
    """Load and configure libc for mmap/munmap calls (Linux only)."""
    if not IS_LINUX:
        return None
    name = ctypes.util.find_library("c") or "libc.so.6"
    try:
        lib = ctypes.CDLL(name, use_errno=True)
    except OSError:
        return None
    lib.mmap.restype = ctypes.c_void_p
    lib.mmap.argtypes = [
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.c_int,
        ctypes.c_int,
        ctypes.c_int,
        ctypes.c_long,
    ]
    lib.munmap.restype = ctypes.c_int
    lib.munmap.argtypes = [ctypes.c_void_p, ctypes.c_size_t]
    return lib


_LIBC = _load_libc()


def libc() -> "ctypes.CDLL | None":
    """The configured libc handle, or ``None`` where unavailable."""
    return _LIBC
