"""Simulated virtual-memory subsystem (the rewiring substrate).

This package replaces the Linux kernel facilities the paper builds on —
main-memory files on tmpfs, ``mmap(MAP_FIXED)`` rewiring, and
``/proc/PID/maps`` — with a deterministic simulation whose operations
charge a calibrated cost model.  See DESIGN.md §2 for the substitution
rationale.
"""

from .address_space import AddressSpace
from .constants import (
    MAX_VALUE,
    MIN_VALUE,
    PAGE_HEADER_BYTES,
    PAGE_SIZE,
    VALUE_WIDTH,
    VALUES_PER_PAGE,
)
from .cost import MAIN_LANE, MAPPER_LANE, CostLedger, CostModel, CostParameters, Region
from .errors import (
    BadAddressError,
    FileError,
    MapError,
    OutOfMemoryError,
    ProcMapsError,
    VmError,
)
from .mmap_api import MemoryMapper
from .physical import MemoryFile, PhysicalMemory
from .procmaps import (
    MappingSnapshot,
    MapsEntry,
    parse_maps,
    render_maps,
    snapshot_address_space,
)
from .vma import Vma

__all__ = [
    "AddressSpace",
    "BadAddressError",
    "CostLedger",
    "CostModel",
    "CostParameters",
    "FileError",
    "MAIN_LANE",
    "MAPPER_LANE",
    "MappingSnapshot",
    "MapsEntry",
    "MapError",
    "MAX_VALUE",
    "MemoryFile",
    "MemoryMapper",
    "MIN_VALUE",
    "OutOfMemoryError",
    "PAGE_HEADER_BYTES",
    "PAGE_SIZE",
    "PhysicalMemory",
    "ProcMapsError",
    "Region",
    "render_maps",
    "parse_maps",
    "snapshot_address_space",
    "VALUE_WIDTH",
    "VALUES_PER_PAGE",
    "Vma",
    "VmError",
]
