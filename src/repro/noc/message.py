"""Coherence messages carried by the wired mesh.

One class covers every wired message; the ``kind`` field names the protocol
action (GetS, GetX, Data, Inv, InvAck, PutS, PutM, WBAck, WirUpgr,
WirUpgrAck, PutW, WirDwgrAck, ...). Size matters only for link occupancy:
control messages are one flit, data-bearing messages carry a line.

Fast path
---------
Messages store the *interned* kind id (see :mod:`repro.coherence.messages`)
and precompute ``carries_data`` at construction, so the mesh and the
controllers never hash a string per message. ``Message.kind`` remains a
string-valued property for reprs, traces, and tests.

Every send constructs a new message. A handler that keeps one past its
delivery (a directory deferred queue, a scheduled retry) just holds the
reference; nothing recycles it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.coherence import messages as mk

#: Message kinds that carry a full cache line (affects link occupancy).
DATA_BEARING_KINDS = frozenset({"Data", "DataE", "FwdData", "WBData", "WirUpgr"})

#: kind id -> bool, grown lazily as new kinds are interned.
_CARRIES_DATA: List[bool] = []


def _carries_data(kid: int) -> bool:
    table = _CARRIES_DATA
    if kid >= len(table):
        for i in range(len(table), mk.num_kinds()):
            table.append(mk.kind_name(i) in DATA_BEARING_KINDS)
    return table[kid]


class Message:
    """A single wired NoC message.

    Attributes
    ----------
    kind_id:
        Interned protocol kind (dispatch key; see
        :mod:`repro.coherence.messages`).
    kind:
        Protocol message name (e.g. ``"GetS"``) — derived from ``kind_id``.
    src, dst:
        Tile ids.
    line:
        Line address the transaction concerns.
    payload:
        Free-form protocol fields (data words, sharer flags, ack counts...).
    carries_data:
        Whether the message occupies link bandwidth for a full line.
    """

    __slots__ = (
        "kind_id",
        "src",
        "dst",
        "line",
        "payload",
        "carries_data",
    )

    def __init__(
        self,
        kind,
        src: int,
        dst: int,
        line: int,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        kid = kind if type(kind) is int else mk.intern_kind(kind)
        self.kind_id = kid
        self.src = src
        self.dst = dst
        self.line = line
        self.payload = payload if payload is not None else {}
        self.carries_data = _carries_data(kid)

    # --------------------------------------------------------------- views

    @property
    def kind(self) -> str:
        """Protocol name of this message (debug/trace layer)."""
        return mk.kind_name(self.kind_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Message({self.kind} {self.src}->{self.dst} line=0x{self.line:x})"
