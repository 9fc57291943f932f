"""Trace operation format shared by the workload generators and the cores.

A trace is either a plain list of :class:`TraceOp` or a
:class:`TraceChunk` — the same operation stream stored struct-of-arrays
(one parallel column per field) so the core's dispatch loop indexes flat
lists instead of walking per-op objects. Keeping traces flat value data
(rather than callbacks) lets the generators be tested in isolation and
lets one trace drive both the Baseline and the WiDir machine, which is
what makes normalized comparisons meaningful.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

OP_THINK = "think"      # arg: non-memory instruction count
OP_LOAD = "load"        # address; ``blocking`` marks use-dependent loads
OP_STORE = "store"      # address + value
OP_RMW = "rmw"          # address (atomic fetch-and-increment)
OP_BARRIER = "barrier"  # arg: phase id (cross-core alignment point)

_VALID_KINDS = frozenset({OP_THINK, OP_LOAD, OP_STORE, OP_RMW, OP_BARRIER})


class TraceOp:
    """One operation in a core's instruction trace."""

    __slots__ = ("kind", "address", "value", "arg", "blocking")

    def __init__(
        self,
        kind: str,
        address: int = 0,
        value: int = 0,
        arg: int = 0,
        blocking: bool = True,
    ) -> None:
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown trace op kind {kind!r}")
        self.kind = kind
        self.address = address
        self.value = value
        self.arg = arg
        self.blocking = blocking

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.kind == OP_THINK:
            return f"TraceOp(think {self.arg})"
        if self.kind == OP_BARRIER:
            return f"TraceOp(barrier {self.arg})"
        return f"TraceOp({self.kind} 0x{self.address:x})"


def think(instructions: int) -> TraceOp:
    """Convenience constructor for a non-memory instruction burst."""
    return TraceOp(OP_THINK, arg=instructions)


def load(address: int, blocking: bool = True) -> TraceOp:
    return TraceOp(OP_LOAD, address=address, blocking=blocking)


def store(address: int, value: int = 0) -> TraceOp:
    return TraceOp(OP_STORE, address=address, value=value)


def rmw(address: int) -> TraceOp:
    return TraceOp(OP_RMW, address=address)


def barrier(phase: int) -> TraceOp:
    return TraceOp(OP_BARRIER, arg=phase)


#: Stable small-integer codes for the on-disk trace format (the string
#: constants stay the in-memory dispatch values — they are interned, so the
#: core's equality tests are pointer compares).
KIND_CODES = {OP_THINK: 0, OP_LOAD: 1, OP_STORE: 2, OP_RMW: 3, OP_BARRIER: 4}
KIND_NAMES = {code: kind for kind, code in KIND_CODES.items()}


class TraceChunk:
    """A trace stored struct-of-arrays: one parallel column per op field.

    The core's dispatch loop reads ``kinds[pc]`` / ``addresses[pc]`` /
    ... directly (no per-op object, no attribute walks); tests and
    diagnostics iterate a chunk and receive :class:`TraceOp` views built
    on demand, so every existing trace consumer keeps working.

    Columns are plain Python lists of scalars: the hot consumer is the
    interpreter, not numpy.
    """

    __slots__ = ("kinds", "addresses", "values", "args", "blocking")

    def __init__(self) -> None:
        self.kinds: List[str] = []
        self.addresses: List[int] = []
        self.values: List[int] = []
        self.args: List[int] = []
        self.blocking: List[bool] = []

    # -------------------------------------------------------------- builders

    def append_think(self, instructions: int) -> None:
        self.kinds.append(OP_THINK)
        self.addresses.append(0)
        self.values.append(0)
        self.args.append(instructions)
        self.blocking.append(True)

    def append_load(self, address: int, blocking: bool = True) -> None:
        self.kinds.append(OP_LOAD)
        self.addresses.append(address)
        self.values.append(0)
        self.args.append(0)
        self.blocking.append(blocking)

    def append_store(self, address: int, value: int = 0) -> None:
        self.kinds.append(OP_STORE)
        self.addresses.append(address)
        self.values.append(value)
        self.args.append(0)
        self.blocking.append(True)

    def append_rmw(self, address: int) -> None:
        self.kinds.append(OP_RMW)
        self.addresses.append(address)
        self.values.append(0)
        self.args.append(0)
        self.blocking.append(True)

    def append_barrier(self, phase: int) -> None:
        self.kinds.append(OP_BARRIER)
        self.addresses.append(0)
        self.values.append(0)
        self.args.append(phase)
        self.blocking.append(True)

    def append(self, op: TraceOp) -> None:
        """Destructure one :class:`TraceOp` into the columns."""
        self.kinds.append(op.kind)
        self.addresses.append(op.address)
        self.values.append(op.value)
        self.args.append(op.arg)
        self.blocking.append(op.blocking)

    @classmethod
    def from_ops(cls, ops) -> "TraceChunk":
        """Convert an iterable of :class:`TraceOp` (one pass)."""
        chunk = cls()
        append = chunk.append
        for op in ops:
            append(op)
        return chunk

    def extend(self, other: "TraceChunk") -> None:
        """Append every op of ``other`` (column-wise, no per-op objects)."""
        self.kinds.extend(other.kinds)
        self.addresses.extend(other.addresses)
        self.values.extend(other.values)
        self.args.extend(other.args)
        self.blocking.extend(other.blocking)

    # ------------------------------------------------------------- views

    def __len__(self) -> int:
        return len(self.kinds)

    def slice(self, start: int, stop: int) -> "TraceChunk":
        """A new chunk holding ops ``[start, stop)`` (columns are copies)."""
        piece = TraceChunk()
        piece.kinds = self.kinds[start:stop]
        piece.addresses = self.addresses[start:stop]
        piece.values = self.values[start:stop]
        piece.args = self.args[start:stop]
        piece.blocking = self.blocking[start:stop]
        return piece

    def op(self, index: int) -> TraceOp:
        """Materialize one op as a :class:`TraceOp` view (a copy: mutating
        it does not write back; mutate the columns directly instead)."""
        view = TraceOp.__new__(TraceOp)
        view.kind = self.kinds[index]
        view.address = self.addresses[index]
        view.value = self.values[index]
        view.arg = self.args[index]
        view.blocking = self.blocking[index]
        return view

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.op(i) for i in range(*index.indices(len(self.kinds)))]
        return self.op(index)

    def __iter__(self) -> Iterator[TraceOp]:
        for i in range(len(self.kinds)):
            yield self.op(i)


#: Either trace representation, accepted by ``Core.run_trace``.
Trace = Union[List[TraceOp], TraceChunk]


def count_instructions(trace) -> int:
    """Total instructions a trace represents (memory ops count as one)."""
    total = 0
    for op in trace:
        if op.kind == OP_THINK:
            total += op.arg
        elif op.kind != OP_BARRIER:
            total += 1
    return total
