"""Trace operation format shared by the workload generators and the cores.

A trace is either a plain list of :class:`TraceOp` or a
:class:`TraceChunk` — the same operation stream stored struct-of-arrays
(one typed column per field) so the core's dispatch loop indexes flat
buffers instead of walking per-op objects. Keeping traces flat value data
(rather than callbacks) lets the generators be tested in isolation and
lets one trace drive both the Baseline and the WiDir machine, which is
what makes normalized comparisons meaningful.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Union

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


#: Stable small-integer codes of the op kinds: ``KIND_NAMES[code]`` is the
#: kind. A :class:`TraceChunk` stores kinds as these codes, as the on-disk
#: trace format does; :class:`TraceOp` views carry the interned string
#: constants.
KIND_NAMES = (OP_THINK, OP_LOAD, OP_STORE, OP_RMW, OP_BARRIER)
KIND_CODES = {kind: code for code, kind in enumerate(KIND_NAMES)}
CODE_THINK, CODE_LOAD, CODE_STORE, CODE_RMW, CODE_BARRIER = range(len(KIND_NAMES))

#: One zero int64, repeated to size an ``array('q')`` column exactly.
_INT64_ZERO = array("q", [0])


class TraceChunk:
    """A trace stored struct-of-arrays: one parallel typed column per op
    field.

    ``kinds`` is a :class:`bytearray` of :data:`KIND_CODES`, ``blocking`` a
    :class:`bytearray` of 0/1, and ``addresses``, ``values`` and ``args``
    are ``array('q')``: 26 bytes an op, as in a ``.wtr`` record, with no
    per-op object to build, to copy on write after a fork, or for the
    cyclic collector to walk. The core's dispatch loop reads ``kinds[pc]`` / ``addresses[pc]`` / ... directly;
    tests and diagnostics append, index and iterate :class:`TraceOp`
    views, string-kinded, built on demand.
    """

    __slots__ = ("kinds", "addresses", "values", "args", "blocking")

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.addresses = array("q")
        self.values = array("q")
        self.args = array("q")
        self.blocking = bytearray()

    # -------------------------------------------------------------- builders

    @classmethod
    def from_columns(cls, kinds, addresses, values, args, blocking) -> "TraceChunk":
        """A chunk holding five equal-length numpy columns: ``kinds`` as
        uint8 codes, ``blocking`` as bools or 0/1 (any non-zero is 1),
        the others as integers, converted to native int64.

        Each column is copied once into a buffer of exactly its size.
        """
        import numpy as np

        def int64s(column) -> array:
            out = _INT64_ZERO * len(column)
            np.frombuffer(out, dtype=np.int64)[:] = column
            return out

        chunk = cls.__new__(cls)
        chunk.kinds = bytearray(np.ascontiguousarray(kinds, dtype=np.uint8).data)
        chunk.addresses = int64s(addresses)
        chunk.values = int64s(values)
        chunk.args = int64s(args)
        chunk.blocking = bytearray(np.ascontiguousarray(blocking, dtype=np.bool_).data)
        return chunk

    def append(self, op: TraceOp) -> None:
        """Destructure one :class:`TraceOp` into the columns."""
        self.kinds.append(KIND_CODES[op.kind])
        self.addresses.append(op.address)
        self.values.append(op.value)
        self.args.append(op.arg)
        self.blocking.append(1 if op.blocking else 0)

    @classmethod
    def from_ops(cls, ops) -> "TraceChunk":
        """Convert an iterable of :class:`TraceOp` (one pass)."""
        chunk = cls()
        append = chunk.append
        for op in ops:
            append(op)
        return chunk

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
        view.kind = KIND_NAMES[self.kinds[index]]
        view.address = self.addresses[index]
        view.value = self.values[index]
        view.arg = self.args[index]
        view.blocking = bool(self.blocking[index])
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
