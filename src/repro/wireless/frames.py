"""Wireless data-channel frame format.

A frame is small by construction: the 20 Gb/s channel moves a 64-bit word
plus its address in 4 cycles, so frames carry at most one word of data.
The coherence protocol uses four frame kinds:

========== =============================================================
WirUpd     fine-grained word update broadcast by a W-state sharer
BrWirUpgr  directory announces a line's transition to W
WirDwgr    directory announces a line's transition back to S
WirInv     directory invalidates a wirelessly shared line it is evicting
========== =============================================================

Like wired :class:`~repro.noc.message.Message` objects, frames store the
interned kind id for dispatch and precompute ``jammable``; the string
``kind`` stays available as a property for traces and tests. Frames are
broadcast: every tile's handler sees the same object.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.coherence import messages as mk

_WIR_UPD_ID = mk.WIR_UPD_ID


class WirelessFrame:
    """One broadcast frame on the wireless data channel."""

    __slots__ = ("kind_id", "src", "line", "word", "value", "payload",
                 "jammable")

    def __init__(
        self,
        kind,
        src: int,
        line: int,
        word: int = 0,
        value: int = 0,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        kid = kind if type(kind) is int else mk.intern_kind(kind)
        self.kind_id = kid
        self.src = src
        self.line = line
        self.word = word
        self.value = value
        self.payload = payload if payload is not None else {}
        # Selective jamming targets cores' data updates only. The
        # directory-originated transition frames (BrWirUpgr, WirDwgr,
        # WirInv) are sent exclusively by the line's home — the very node
        # doing the jamming — and must always pass. Exempting by *kind*
        # rather than by sender matters: the home tile's own L1 may be a
        # wireless sharer, and its WirUpd frames must still be jammed.
        self.jammable = kid == _WIR_UPD_ID

    # --------------------------------------------------------------- views

    @property
    def kind(self) -> str:
        """Frame kind name (debug/trace layer)."""
        return mk.kind_name(self.kind_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WirelessFrame({self.kind} from {self.src} line=0x{self.line:x})"
