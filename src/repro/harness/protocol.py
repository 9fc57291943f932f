"""Length-prefixed JSON-RPC wire protocol for distributed campaigns.

The coordinator/worker protocol (:mod:`repro.harness.distributed`) is
deliberately tiny: every message is one UTF-8 JSON object prefixed by a
4-byte big-endian length. No TLS, no negotiation, no streaming bodies —
the payloads are canonical simulation results (a few KB) and the peers
are trusted harness processes.

Wire format::

    +----------------+----------------------------------+
    | length (u32be) | UTF-8 JSON, exactly length bytes |
    +----------------+----------------------------------+

Request / response shape (a strict subset of JSON-RPC)::

    -> {"id": 7, "method": "lease", "params": {"worker_id": "w0"}}
    <- {"id": 7, "result": {"kind": "run", ...}}
    <- {"id": 7, "error": {"code": 429,
                           "message": "worker holds 1 leases (max 1)"}}

Methods the coordinator serves (see docs/API.md for the full schemas):
``serve`` (worker registration), ``lease``, ``result``, ``fail``,
``heartbeat``, ``status``, ``bye``.

Two transports share the framing:

* :func:`send_frame` / :func:`recv_frame` — blocking sockets (workers,
  the CLI status client);
* :func:`read_frame_async` / :func:`write_frame_async` — asyncio streams
  (the coordinator).

A torn peer (connection dropped mid-frame) surfaces as ``None`` from the
receive side, never a partial object: the frame either arrives whole or
not at all, mirroring the torn-line tolerance of the on-disk journals.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

#: Protocol schema version, carried in the ``serve`` handshake. Bump on
#: any incompatible change to method names or message shapes (2, since
#: 1.5: one method left, so a 1.4 worker is refused at ``serve``).
PROTOCOL_VERSION = 2

#: Hard cap on one frame; a peer announcing more is corrupt or hostile.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Framing/shape violation (oversized frame, non-JSON body, ...)."""


class RpcError(RuntimeError):
    """A well-formed error response from the peer."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


#: Error codes the coordinator emits.
ERR_BAD_REQUEST = 400
ERR_UNKNOWN_METHOD = 404
ERR_THROTTLED = 429
ERR_INTERNAL = 500


# ----------------------------------------------------------------- framing


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON body."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the cap")
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame body must be a JSON object")
    return payload


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame")


# ------------------------------------------------------------ sync sockets


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at a boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None  # clean EOF between frames
            raise ProtocolError("connection dropped mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Receive one frame; ``None`` when the peer closed cleanly."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    _check_length(length)
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise ProtocolError("connection dropped between header and body")
    return decode_body(body)


class RpcClient:
    """Blocking request/response client over one TCP connection.

    Calls are strictly sequential per client (the worker's main loop is
    synchronous); concurrent callers must use separate clients — e.g. the
    worker heartbeat thread owns its own connection so beats never
    interleave with a lease in flight.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._next_id = 0

    # -- lifecycle -------------------------------------------------------

    def connect(self) -> "RpcClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "RpcClient":
        return self.connect()

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- calls -----------------------------------------------------------

    def call(self, method: str, **params: Any) -> Dict[str, Any]:
        """Send one request, block for its response.

        Raises :class:`RpcError` for error responses, :class:`ProtocolError`
        for framing violations, ``OSError`` for transport failures.
        """
        if self._sock is None:
            self.connect()
        self._next_id += 1
        request_id = self._next_id
        send_frame(
            self._sock, {"id": request_id, "method": method, "params": params}
        )
        response = recv_frame(self._sock)
        if response is None:
            raise ProtocolError(f"peer closed during {method!r}")
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}"
            )
        error = response.get("error")
        if error is not None:
            raise RpcError(
                int(error.get("code", ERR_INTERNAL)),
                str(error.get("message", "unknown error")),
            )
        result = response.get("result")
        if not isinstance(result, dict):
            raise ProtocolError("response carries no result object")
        return result


def parse_endpoint(raw: str) -> Tuple[str, int]:
    """Parse ``host:port`` (the CLI ``--connect`` format)."""
    host, _, port = raw.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"endpoint {raw!r} is not host:port (e.g. 127.0.0.1:7471)"
        )
    return host, int(port)


# ---------------------------------------------------------- asyncio streams


async def read_frame_async(reader) -> Optional[Dict[str, Any]]:
    """Read one frame from an ``asyncio.StreamReader``; ``None`` on EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection dropped mid-header") from None
    (length,) = _LENGTH.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection dropped mid-frame") from None
    return decode_body(body)


async def write_frame_async(writer, payload: Dict[str, Any]) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


def error_response(request_id: Any, code: int, message: str) -> Dict[str, Any]:
    return {"id": request_id, "error": {"code": code, "message": message}}


def result_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "result": result}


__all__ = [
    "ERR_BAD_REQUEST",
    "ERR_INTERNAL",
    "ERR_THROTTLED",
    "ERR_UNKNOWN_METHOD",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RpcClient",
    "RpcError",
    "decode_body",
    "encode_frame",
    "error_response",
    "parse_endpoint",
    "read_frame_async",
    "recv_frame",
    "result_response",
    "send_frame",
    "write_frame_async",
]
