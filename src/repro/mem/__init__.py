"""Memory-hierarchy substrate.

The pieces the coherence controllers are built on: word/line addressing and
home-slice mapping (:mod:`repro.mem.address`), the set-associative tag/data
array with LRU replacement (:mod:`repro.mem.cache_array`), miss-status holding
registers (:mod:`repro.mem.mshr`), and the off-chip memory controllers
(:mod:`repro.mem.memory_controller`).
"""

from repro.mem.address import AddressMap
from repro.mem.cache_array import CacheArray, CacheLine
from repro.mem.memory_controller import MainMemory, MemoryController
from repro.mem.mshr import Mshr, MshrFile

__all__ = [
    "AddressMap",
    "CacheArray",
    "CacheLine",
    "MainMemory",
    "MemoryController",
    "Mshr",
    "MshrFile",
]
