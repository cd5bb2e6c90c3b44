"""SEALDB: the paper's contribution.

* :mod:`repro.core.freespace` -- the free-space list: a sorted array of
  size classes, each holding a doubly-linked list of free regions
  (Section III-B2 of the paper), giving ``O(log n)`` allocation.
* :mod:`repro.core.dynamic_band` -- dynamic-band management: append,
  insert under Eq. 1 (``S_free >= S_req + S_guard``), split, coalesce,
  and the derived dynamic-band / fragment layout reporting.
* :mod:`repro.core.sets` -- the set registry: groups of SSTables written
  together by one compaction, invalidated member-by-member and
  reclaimed when the whole set fades.
* :mod:`repro.core.storage` -- the direct-on-disk placement policy
  combining the two (name -> PBA indirection, contiguous set writes),
  plus the fragment reporting and fragment GC.

The ``"sealdb"`` row of :data:`repro.registry.STORE_SPECS` wires this
storage over a raw HM-SMR drive: ``repro.open("sealdb")``.
"""

from repro.core.freespace import FreeSpaceList
from repro.core.dynamic_band import DynamicBandManager
from repro.core.sets import SetInfo, SetRegistry
from repro.core.storage import DynamicBandStorage

__all__ = [
    "DynamicBandManager",
    "DynamicBandStorage",
    "FreeSpaceList",
    "SetInfo",
    "SetRegistry",
]
