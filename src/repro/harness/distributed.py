"""The campaign engine: a coordinator with one run queue, and its workers.

One asyncio **coordinator** owns a campaign directory and hands its
pending run keys to N **worker agents** — local forked subprocesses
or remote processes speaking the length-prefixed JSON-RPC protocol of
:mod:`repro.harness.protocol` over TCP. Every campaign runs here:
``campaign run``/``resume`` (local agents only), ``campaign serve``
(local and/or remote agents), ``api.campaign`` and
``api.distributed_campaign`` all go through
:func:`~repro.harness.campaign.run_campaign`. The design goals, in order:

1. **Resume identity.** Every completion lands through the campaign
   discipline — payload written atomically in ``runs/`` *before* a
   journal record says "ok" — into ``journal.jsonl`` (single writer:
   the coordinator). The final aggregate is :meth:`Campaign.finalize`,
   a pure function of the payloads, so the merged ``results.json``
   sha256 is bit-for-bit the digest of the same payloads simulated
   in-process, no matter how many workers, kills, or resumes happened
   in between.
2. **One queue.** Pending keys wait in one ready queue in plan order;
   ``lease`` grants the oldest run that is ready. A retry rejoins at the
   rear and is not granted before its backoff ends, so it never blocks
   the runs queued behind it.
3. **Fault tolerance.** A worker's registration connection dropping
   (SIGKILL, OOM) immediately requeues its leases as *crashed*; the
   watchdog requeues the leases of a heartbeat-stale worker as *hung*
   and an overdue lease (past ``lease_timeout``, the per-run budget) as
   *timeout*, SIGKILLing the agent when it is local so its slot frees
   up. Local agents that die are respawned until the campaign is
   terminal. Retries ride the seeded
   :class:`~repro.harness.supervisor.RetryPolicy` ladder, are journalled
   as ``attempt`` records, and retry exhaustion degrades gracefully
   (journaled ``failed``, listed in ``provenance.json``). Injected faults
   (:class:`~repro.harness.supervisor.ScriptedFaults` /
   :class:`~repro.harness.supervisor.SeededFaults`) are drawn at grant
   time and acted out by the agent.
4. **Backpressure.** Each worker holds at most one lease
   (:data:`MAX_INFLIGHT_PER_WORKER`); a ``lease`` past that is answered
   429, which clients absorb by backing off.

Cache layer: before queueing a key the coordinator consults the
executor memo cache (``REPRO_CACHE_DIR``); a run some earlier campaign
already computed completes at once as a ``cache`` hit and never reaches
a worker.

Wire protocol methods (shapes in docs/API.md): ``serve`` ``lease``
``result`` ``fail`` ``heartbeat`` ``status`` ``bye``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.harness.campaign import CHECKPOINT_SCHEMA_VERSION, Campaign
from repro.harness.executor import Executor, RunRequest, _simulate, run_key
from repro.harness.ioutils import atomic_write_json
from repro.harness.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_THROTTLED,
    ERR_UNKNOWN_METHOD,
    PROTOCOL_VERSION,
    ProtocolError,
    RpcClient,
    RpcError,
    error_response,
    read_frame_async,
    result_response,
    write_frame_async,
)
from repro.harness.supervisor import (
    CRASH_EXIT_CODE,
    RetryPolicy,
    replay_sys_paths,
    start_heartbeat_thread,
)
from repro.obs.campaign import CampaignTelemetry

#: Endpoint advertisement the coordinator drops in the campaign dir.
COORDINATOR_NAME = "coordinator.json"
#: Post-run summary (worker/counter accounting + digest).
SUMMARY_NAME = "distributed.json"

#: Worker-side runner modes the ``serve`` handshake can assign. ``sim``
#: executes the real simulation; ``sleep`` substitutes a deterministic
#: fixed-duration payload — the scheduling-efficiency workload the
#: distributed bench lane uses on low-core boxes (see
#: docs/PERFORMANCE.md).
RUNNER_MODES = ("sim", "sleep")

#: Leases one worker may hold at once (a ``lease`` past it: 429).
#: :class:`WorkerAgent` runs one lease at a time.
MAX_INFLIGHT_PER_WORKER = 1


class DistributedError(RuntimeError):
    """Raised for coordinator misconfiguration or a blown campaign budget
    (never for worker faults: those retry, then degrade)."""


# ------------------------------------------------------------ bookkeeping


@dataclass
class _Entry:
    """One queued run and how many attempts it has eaten."""

    key: str
    attempt: int = 1
    ready_at: float = 0.0  #: monotonic not-before (retry backoff)


@dataclass
class _Lease:
    entry: _Entry
    worker_id: str
    since: float


@dataclass
class _WorkerState:
    worker_id: str
    pid: int = 0
    joined_at: float = 0.0
    last_beat: float = 0.0
    inflight: Dict[str, _Lease] = field(default_factory=dict)
    leases: int = 0
    completed: int = 0
    alive: bool = True
    departed: bool = False  #: said ``bye`` (clean) vs lost (requeue)


# -------------------------------------------------------------- coordinator


class Coordinator:
    """Asyncio RPC server handing one campaign's runs to worker agents.

    All state lives on the event loop thread; handlers are the only
    mutators. Durable writes (payloads, journal records) are synchronous
    inside handlers — they are small fsynced files, and ordering them
    inside the handler *is* the crash-safety contract.

    ``lease_timeout`` is the per-run budget (``None``: unlimited);
    ``faults`` is an optional ``(key, attempt) -> fault kind or None``
    schedule evaluated at grant time (fault drills).
    """

    def __init__(
        self,
        campaign: Campaign,
        host: str = "127.0.0.1",
        port: int = 0,
        executor: Optional[Executor] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Callable[[str, int], Optional[str]]] = None,
        lease_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.25,
        heartbeat_grace: float = 40.0,
        runner: str = "sim",
        runner_seconds: float = 0.0,
        chaos_kill_after: Optional[int] = None,
        telemetry: Optional[CampaignTelemetry] = None,
        on_event: Optional[Callable[[Dict], None]] = None,
        poll_interval: float = 0.25,
    ) -> None:
        if runner not in RUNNER_MODES:
            raise DistributedError(
                f"unknown runner mode {runner!r}; known: {RUNNER_MODES}"
            )
        self.campaign = campaign
        self.host = host
        self.port = port
        self.executor = executor if executor is not None else Executor(workers=1)
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_grace = heartbeat_grace
        self.runner = runner
        self.runner_seconds = runner_seconds
        self.chaos_kill_after = chaos_kill_after
        self.telemetry = (
            telemetry if telemetry is not None else CampaignTelemetry()
        )
        self.on_event = on_event
        self.poll_interval = poll_interval

        # Unique plan: key -> request, first occurrence (campaign order).
        self.requests: Dict[str, RunRequest] = {}
        for key, request in zip(
            campaign.keys, campaign.plan.requests
        ):
            self.requests.setdefault(key, request)

        self.payloads: Dict[str, Dict] = {}
        #: key -> terminal failure (``key``, ``reason``, ``attempts``);
        #: disjoint from ``payloads`` — a late valid result heals it.
        self.failed: Dict[str, Dict] = {}
        #: key -> attempt number of its latest grant.
        self.attempts: Dict[str, int] = {}
        #: The run queue, in insertion order: the plan's order, and a retry
        #: rejoins at the rear (a key is queued or leased, never both).
        self.queued: Dict[str, _Entry] = {}
        self.leases: Dict[str, _Lease] = {}
        self.workers: Dict[str, _WorkerState] = {}
        #: The most agents alive at once, counted at each ``serve``: a
        #: respawned agent replaces a lost one rather than adding to it.
        self.peak_workers = 0
        #: pid -> Process handle of every live local agent.
        self.local_workers: Dict[int, object] = {}
        self.local_target = 0

        self.resumed = 0
        self.accepted_results = 0
        self._chaos_fired = False
        self._next_worker = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._watchdog: Optional[asyncio.Task] = None
        self._done = asyncio.Event()
        self.digest: str = ""
        self.summary: Dict = {}
        self.started_at = 0.0

    # ------------------------------------------------------------- events

    def _emit(self, event: Dict) -> None:
        self.telemetry.on_event(event)
        if self.on_event is not None:
            self.on_event(event)

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind, replay journals, advertise the endpoint and queue every
        pending key; returns the endpoint."""
        self.started_at = time.monotonic()
        payloads = self.campaign.completed_payloads()
        self.payloads.update(payloads)
        self.resumed = len(payloads)
        self._emit({"event": "plan", "total": len(self.campaign.labels)})
        for _ in range(len(payloads)):
            self._emit({"event": "resume-skip"})
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        atomic_write_json(
            self.campaign.directory / COORDINATOR_NAME,
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "name": self.campaign.spec.name,
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
            },
        )
        self._watchdog = asyncio.ensure_future(self._watch())
        self.enqueue_pending()  # cache hits may finish it here
        return self.host, self.port

    async def stop(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._watchdog = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Drain connection handlers while the loop is still alive, so a
        # worker blocked between frames doesn't surface a CancelledError
        # at interpreter shutdown.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()
        # Withdraw the advertised endpoint once the campaign is complete so
        # `campaign status --live` reports "no coordinator" instead of a
        # connection error. An *interrupted* run keeps the file: resume
        # rewrites it, and a stale endpoint is detectable via its pid.
        if self.done:
            try:
                (self.campaign.directory / COORDINATOR_NAME).unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    async def wait_done(self, timeout: Optional[float] = None) -> bool:
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    @property
    def done(self) -> bool:
        return self._done.is_set()

    # ------------------------------------------------------------- filling

    def enqueue_pending(self) -> None:
        """Queue every non-terminal key; cache hits complete now."""
        for key in self.requests:
            if key in self.payloads or key in self.queued or key in self.leases:
                continue
            if key in self.failed:
                continue
            # Cache payloads are real simulation results; a sleep-mode
            # campaign neither reads nor writes them (its synthetic payloads
            # must not masquerade as — or be poisoned by — sim results).
            cached = (
                self.executor._cache_load(key)
                if self.runner == "sim"
                else None
            )
            if cached is not None:
                self._complete(key, cached, "cache", attempts=0)
                self._emit({"event": "cache-hit", "key": key})
                continue
            self.queued[key] = _Entry(key=key)
        self._emit({"event": "queue-depth", "depth": len(self.queued)})
        self._maybe_finish()

    # ---------------------------------------------------------- completion

    def _complete(
        self, key: str, payload: Dict, source: str, attempts: int
    ) -> None:
        self.campaign.record_completion(key, payload, source, attempts)
        if self.runner == "sim":
            self.executor._cache_store(key, payload)
        self.payloads[key] = payload
        self._maybe_finish()

    def _fail_terminal(
        self, key: str, status: str, detail: str, attempts: int
    ) -> None:
        reason = f"{status}: {detail}" if detail else status
        self.campaign.record_attempt(key, attempts, status, detail)
        self.campaign.record_failure(key, reason, attempts)
        self.failed[key] = {"key": key, "reason": reason, "attempts": attempts}
        self._emit(
            {
                "event": "giveup",
                "key": key,
                "attempt": attempts,
                "status": status,
                "detail": detail,
            }
        )
        self._maybe_finish()

    def _terminal_count(self) -> int:
        return len(self.payloads) + len(self.failed)

    def _maybe_finish(self) -> None:
        if self._done.is_set():
            return
        if self._terminal_count() < len(self.requests):
            return
        self.digest = self.campaign.finalize(
            self.payloads, list(self.failed.values())
        )
        self._write_summary()
        self._done.set()

    def _write_summary(self) -> None:
        self.summary = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "name": self.campaign.spec.name,
            "digest": self.digest,
            "runner": self.runner,
            "workers": {
                state.worker_id: {
                    "leases": state.leases,
                    "completed": state.completed,
                    "lost": not state.departed and not state.alive,
                }
                for state in self.workers.values()
            },
            "counters": dict(self.telemetry.counters),
            "wall_seconds": time.monotonic() - self.started_at,
        }
        atomic_write_json(self.campaign.directory / SUMMARY_NAME, self.summary)

    # ------------------------------------------------------------- requeue

    def _requeue(self, lease: _Lease, status: str, detail: str) -> None:
        """One failed/killed/expired attempt back to the rear of the queue."""
        key = lease.entry.key
        self.leases.pop(key, None)
        worker = self.workers.get(lease.worker_id)
        if worker is not None:
            worker.inflight.pop(key, None)
        attempt = lease.entry.attempt
        if attempt >= self.retry.max_attempts:
            self._fail_terminal(key, status, detail, attempt)
            return
        delay = self.retry.delay_seconds(key, attempt)
        self.campaign.record_attempt(key, attempt, status, detail, backoff=delay)
        self.queued[key] = _Entry(
            key=key, attempt=attempt + 1, ready_at=time.monotonic() + delay
        )
        self._emit(
            {
                "event": "retry",
                "key": key,
                "attempt": attempt,
                "status": status,
                "detail": detail,
                "backoff": delay,
                "worker": lease.worker_id,
            }
        )
        self._emit({"event": "requeue", "key": key, "worker": lease.worker_id})

    def _lose_worker(
        self, worker: _WorkerState, reason: str, status: str = "crashed"
    ) -> None:
        if not worker.alive:
            return
        worker.alive = False
        if self.done and not worker.inflight:
            # Shutdown race: the campaign finished and the server is going
            # away before the worker's "bye" lands. Not a loss.
            worker.departed = True
        if worker.departed:
            return
        requeued = list(worker.inflight.values())
        for lease in requeued:
            self._requeue(lease, status, reason)
        self._emit(
            {
                "event": "worker-lost",
                "worker": worker.worker_id,
                "requeued": len(requeued),
                "reason": reason,
            }
        )

    # ------------------------------------------------------------ watchdog

    async def _watch(self) -> None:
        """Requeue overdue leases and leases of heartbeat-stale workers.

        A stale worker's leases requeue as ``hung``, an overdue lease as
        ``timeout``; either way a local agent is SIGKILLed so its slot
        respawns instead of staying stuck. Dead local agents respawn here.
        """
        while True:
            await asyncio.sleep(self.poll_interval)
            now = time.monotonic()
            stale_cutoff = self.heartbeat_interval * self.heartbeat_grace
            for worker in list(self.workers.values()):
                if not worker.alive or not worker.inflight:
                    continue
                if (
                    self.heartbeat_interval > 0
                    and now - worker.last_beat > stale_cutoff
                ):
                    self._lose_worker(
                        worker,
                        f"no heartbeat for {now - worker.last_beat:.2f}s",
                        status="hung",
                    )
                    self._kill_local(worker)
            if self.lease_timeout is not None:
                for lease in list(self.leases.values()):
                    if now - lease.since > self.lease_timeout:
                        self._requeue(
                            lease,
                            "timeout",
                            f"lease exceeded {self.lease_timeout:.1f}s",
                        )
                        self._kill_local(self.workers.get(lease.worker_id))
            self._respawn_local_workers()

    # -------------------------------------------------------- local agents

    def run(self, local_workers: int, timeout: Optional[float] = None) -> float:
        """Serve until every run is terminal; returns the wall seconds.

        Keeps ``local_workers`` forked agents alive meanwhile (respawning
        any that die) and accepts remote agents on ``host:port``. Raises
        :class:`DistributedError` when ``timeout`` seconds pass first.
        """
        started = time.perf_counter()

        async def main() -> bool:
            await self.start()
            self.local_target = local_workers
            self._respawn_local_workers()
            finished = await self.wait_done(timeout)
            await self.stop()
            return finished

        try:
            finished = asyncio.run(main())
        finally:
            deadline = time.monotonic() + 5.0
            for process in self.local_workers.values():
                process.join(max(0.0, deadline - time.monotonic()))
                if process.is_alive():  # pragma: no cover - stuck agent
                    process.kill()
                    process.join(1.0)
        if not finished:
            raise DistributedError(
                f"campaign did not reach a terminal state within {timeout}s"
            )
        return time.perf_counter() - started

    def _respawn_local_workers(self) -> None:
        """Reap dead local agents; fork replacements until the campaign ends."""
        for pid, process in list(self.local_workers.items()):
            if not process.is_alive():
                del self.local_workers[pid]
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        while not self.done and len(self.local_workers) < self.local_target:
            process = context.Process(
                target=_local_agent_main,
                args=(self.host, self.port, list(sys.path), "local"),
                daemon=True,
            )
            process.start()
            self.local_workers[process.pid] = process

    def _kill_local(self, worker: Optional[_WorkerState]) -> bool:
        """SIGKILL ``worker`` if it is a live local agent (remote: no-op)."""
        process = self.local_workers.get(worker.pid) if worker else None
        if process is None:
            return False
        process.kill()  # no-op once reaped, so a recycled pid is safe
        return True

    # ------------------------------------------------------------- serving

    async def _handle_connection(self, reader, writer) -> None:
        """One TCP peer: serve requests until EOF.

        If the peer registered via ``serve`` on this connection, EOF (or a
        reset: a SIGKILLed peer) means the worker died, or said ``bye``
        first: its leases requeue immediately — the fast path that makes
        SIGKILLed workers cheap.
        """
        bound_worker: Optional[_WorkerState] = None
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_frame_async(reader)
                except (ProtocolError, OSError, asyncio.CancelledError):
                    break  # OSError: ConnectionResetError from a killed peer
                if request is None:
                    break
                response, bound = self._dispatch(request, bound_worker)
                if bound is not None:
                    bound_worker = bound
                try:
                    await write_frame_async(writer, response)
                except OSError:
                    break
                if request.get("method") == "bye":
                    break
                if response.get("result", {}).get("kind") == "run":
                    self._maybe_chaos_kill(bound_worker)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            if bound_worker is not None:
                self._lose_worker(bound_worker, "connection closed")
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    def _dispatch(
        self, request: Dict, bound_worker: Optional[_WorkerState]
    ) -> Tuple[Dict, Optional[_WorkerState]]:
        request_id = request.get("id")
        method = request.get("method")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return (
                error_response(
                    request_id, ERR_BAD_REQUEST, "params must be an object"
                ),
                None,
            )
        handler = getattr(self, f"_rpc_{method}", None)
        if handler is None:
            return (
                error_response(
                    request_id, ERR_UNKNOWN_METHOD, f"unknown method {method!r}"
                ),
                None,
            )
        try:
            result = handler(params)
        except RpcError as exc:
            return error_response(request_id, exc.code, exc.message), None
        except Exception as exc:  # noqa: BLE001 - surface, don't kill server
            return (
                error_response(
                    request_id, ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
                ),
                None,
            )
        bound = None
        if method == "serve":
            bound = self.workers.get(result["worker_id"])
        return result_response(request_id, result), bound

    # -- individual methods ----------------------------------------------

    def _worker_or_400(self, params: Dict) -> _WorkerState:
        worker = self.workers.get(str(params.get("worker_id", "")))
        if worker is None:
            raise RpcError(ERR_BAD_REQUEST, "unknown worker_id (serve first)")
        return worker

    def _rpc_serve(self, params: Dict) -> Dict:
        peer_protocol = int(params.get("protocol", 0))
        if peer_protocol != PROTOCOL_VERSION:
            raise RpcError(
                ERR_BAD_REQUEST,
                f"protocol {peer_protocol} != {PROTOCOL_VERSION}",
            )
        worker_id = f"w{self._next_worker}"
        self._next_worker += 1
        now = time.monotonic()
        state = _WorkerState(
            worker_id=worker_id,
            pid=int(params.get("pid", 0)),
            joined_at=now,
            last_beat=now,
        )
        self.workers[worker_id] = state
        alive = sum(worker.alive for worker in self.workers.values())
        self.peak_workers = max(self.peak_workers, alive)
        self._emit({"event": "worker-join", "worker": worker_id})
        runner: Dict[str, object] = {"mode": self.runner}
        if self.runner == "sleep":
            runner["seconds"] = self.runner_seconds
        return {
            "worker_id": worker_id,
            "heartbeat_interval": self.heartbeat_interval,
            "campaign": self.campaign.spec.name,
            "runner": runner,
        }

    def _pop_ready(self) -> Optional[_Entry]:
        """The oldest queued entry whose backoff is over, if any."""
        now = time.monotonic()
        for entry in self.queued.values():
            if entry.ready_at <= now:
                return self.queued.pop(entry.key)
        return None

    def _grant(self, worker: _WorkerState, entry: _Entry) -> Dict:
        self.attempts[entry.key] = entry.attempt
        fault = self.faults(entry.key, entry.attempt) if self.faults else None
        lease = _Lease(
            entry=entry, worker_id=worker.worker_id, since=time.monotonic()
        )
        self.leases[entry.key] = lease
        worker.inflight[entry.key] = lease
        worker.leases += 1
        request = self.requests[entry.key]
        self._emit(
            {
                "event": "lease",
                "key": entry.key,
                "worker": worker.worker_id,
                "attempt": entry.attempt,
                "fault": fault,
            }
        )
        self._emit({"event": "queue-depth", "depth": len(self.queued)})
        grant = {
            "kind": "run",
            "key": entry.key,
            "attempt": entry.attempt,
            "request": request.to_dict(),
        }
        if fault is not None:
            grant["fault"] = fault
        return grant

    def _empty(self) -> Dict:
        return {
            "kind": "empty",
            "done": self.done,
            "pending": len(self.queued),
            "leased": len(self.leases),
            "retry_after": 0.05 if not self.done else 0.0,
        }

    def _rpc_lease(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.last_beat = time.monotonic()
        if len(worker.inflight) >= MAX_INFLIGHT_PER_WORKER:
            raise RpcError(
                ERR_THROTTLED,
                f"worker holds {len(worker.inflight)} leases "
                f"(max {MAX_INFLIGHT_PER_WORKER})",
            )
        entry = self._pop_ready()
        if entry is None:
            return self._empty()
        return self._grant(worker, entry)

    def _rpc_result(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.last_beat = time.monotonic()
        key = str(params.get("key", ""))
        payload = params.get("payload")
        if key not in self.requests or not isinstance(payload, dict):
            raise RpcError(ERR_BAD_REQUEST, "result needs a known key + payload")
        lease = self.leases.pop(key, None)
        if lease is not None:
            owner = self.workers.get(lease.worker_id)
            if owner is not None:
                owner.inflight.pop(key, None)
        worker.inflight.pop(key, None)
        if key in self.payloads:
            # Duplicate (lease timed out, another worker already finished,
            # or a zombie reported late): idempotently ignored.
            return {"accepted": False, "done": self.done}
        # A late valid result heals the key: it leaves the terminal
        # failures and any queued retry, so it is terminal exactly once.
        self.failed.pop(key, None)
        self.queued.pop(key, None)
        attempt = self.attempts.get(key, 1)
        self._complete(key, payload, "simulated", attempt)
        worker.completed += 1
        self.accepted_results += 1
        self._emit(
            {
                "event": "ok",
                "key": key,
                "attempt": attempt,
                "elapsed": float(params.get("elapsed", 0.0)),
                "worker": worker.worker_id,
            }
        )
        return {"accepted": True, "done": self.done}

    def _rpc_fail(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.last_beat = time.monotonic()
        key = str(params.get("key", ""))
        if key not in self.requests:
            raise RpcError(ERR_BAD_REQUEST, f"unknown key {key!r}")
        lease = worker.inflight.get(key)
        if lease is None:
            # A stale report: this worker's lease timed out or was requeued,
            # and the key may already be another worker's lease. Act only
            # on the reporter's own lease.
            return {"requeued": False, "giveup": False}
        detail = str(params.get("detail", ""))
        terminal = lease.entry.attempt >= self.retry.max_attempts
        self._requeue(lease, "error", detail)
        return {"requeued": not terminal, "giveup": terminal}

    def _rpc_heartbeat(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.last_beat = time.monotonic()
        return {"ok": True, "done": self.done}

    def _rpc_status(self, params: Dict) -> Dict:
        now = time.monotonic()
        return {
            "campaign": self.campaign.spec.name,
            "done": self.done,
            "digest": self.digest,
            "total": len(self.requests),
            "completed": len(self.payloads),
            "failed": len(self.failed),
            "pending": len(self.queued),
            "leased": len(self.leases),
            "workers": [
                {
                    "worker": state.worker_id,
                    "alive": state.alive,
                    "inflight": len(state.inflight),
                    "leases": state.leases,
                    "completed": state.completed,
                    "beat_age": round(now - state.last_beat, 3),
                }
                for state in self.workers.values()
            ],
            "counters": dict(self.telemetry.counters),
        }

    def _rpc_bye(self, params: Dict) -> Dict:
        worker = self._worker_or_400(params)
        worker.departed = True
        worker.alive = False
        return {"ok": True}

    # --------------------------------------------------------------- chaos

    def _maybe_chaos_kill(self, worker: Optional[_WorkerState]) -> None:
        """SIGKILL the local agent just granted a lease (deterministic drills).

        Fires once, on the first grant after ``chaos_kill_after`` accepted
        results, once the grant frame is written: the victim dies holding
        the lease, so the drill always observes a requeue and a retry.
        """
        if (
            self.chaos_kill_after is None
            or self._chaos_fired
            or self.accepted_results < self.chaos_kill_after
        ):
            return
        if self._kill_local(worker):
            self._chaos_fired = True
            self._emit(
                {
                    "event": "chaos-kill",
                    "worker": worker.worker_id,
                    "pid": worker.pid,
                }
            )


# ------------------------------------------------------------ worker agent


def _connect_with_retry(
    host: str, port: int, deadline: float = 10.0
) -> RpcClient:
    """Connect, retrying while the coordinator is still binding."""
    client = RpcClient(host, port)
    give_up = time.monotonic() + deadline
    while True:
        try:
            return client.connect()
        except OSError:
            if time.monotonic() >= give_up:
                raise
            time.sleep(0.05)


class WorkerAgent:
    """Synchronous lease/execute/report loop against one coordinator.

    Two connections: the registration connection carries the request
    loop (its EOF is the coordinator's fast death-detection path), and
    the heartbeat thread owns a second connection so beats never
    interleave with a lease in flight. A grant carrying a ``fault`` is
    acted out instead of executed (:meth:`_act_out`).
    """

    def __init__(self, host: str, port: int, name: str = "") -> None:
        self.host = host
        self.port = port
        self.name = name
        self.worker_id = ""
        self.completed = 0

    # -- runner ----------------------------------------------------------

    @staticmethod
    def _execute(grant: Dict, runner: Dict) -> Tuple[Dict, float]:
        mode = runner.get("mode", "sim")
        if mode == "sleep":
            seconds = float(runner.get("seconds", 0.0))
            time.sleep(seconds)
            # Deterministic payload: digests of sleep-mode campaigns are
            # still a pure function of the plan, so worker-count A/B runs
            # in the bench lane can assert digest identity too.
            return (
                {
                    "schema": CHECKPOINT_SCHEMA_VERSION,
                    "mode": "sleep",
                    "key": grant["key"],
                },
                seconds,
            )
        request = RunRequest.from_dict(grant["request"])
        expected = run_key(request)
        if expected != grant["key"]:
            raise DistributedError(
                f"request reconstruction drifted: {expected[:12]} != "
                f"{grant['key'][:12]} (schema skew between peers?)"
            )
        return _simulate(request)

    @staticmethod
    def _act_out(fault: str, stop_heartbeat: Callable[[], None]) -> str:
        """Exhibit an injected fault; returns (the detail) only for ``error``.

        ``crash`` exits at once; ``hang`` sleeps while still beating (the
        per-run budget catches it); ``stall`` silences the heartbeat first
        (the heartbeat watchdog catches it). The coordinator SIGKILLs a
        hung or stalled local agent.
        """
        if fault == "crash":
            os._exit(CRASH_EXIT_CODE)
        if fault == "stall":
            stop_heartbeat()
        if fault in ("hang", "stall"):
            time.sleep(3600.0)  # until the coordinator SIGKILLs this agent
        return "injected worker error"

    # -- main loop -------------------------------------------------------

    def run(self) -> int:
        """Serve until the campaign is done; returns runs completed."""
        client = _connect_with_retry(self.host, self.port)
        hello = client.call(
            "serve",
            worker=self.name,
            pid=os.getpid(),
            protocol=PROTOCOL_VERSION,
        )
        self.worker_id = hello["worker_id"]
        runner = hello.get("runner") or {"mode": "sim"}
        heartbeat_interval = float(hello.get("heartbeat_interval", 0.25))

        beat_client = _connect_with_retry(self.host, self.port)
        stop_heartbeat = start_heartbeat_thread(
            lambda: beat_client.call("heartbeat", worker_id=self.worker_id),
            heartbeat_interval,
        )
        try:
            while True:
                grant = client.call("lease", worker_id=self.worker_id)
                if grant.get("kind") == "empty":
                    if grant.get("done"):
                        break
                    time.sleep(float(grant.get("retry_after", 0.05)))
                    continue
                key = grant["key"]
                if grant.get("fault"):
                    client.call(
                        "fail",
                        worker_id=self.worker_id,
                        key=key,
                        detail=self._act_out(grant["fault"], stop_heartbeat),
                    )
                    continue
                try:
                    payload, elapsed = self._execute(grant, runner)
                except Exception as exc:  # noqa: BLE001 - report, continue
                    client.call(
                        "fail",
                        worker_id=self.worker_id,
                        key=key,
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                    continue
                reply = client.call(
                    "result",
                    worker_id=self.worker_id,
                    key=key,
                    payload=payload,
                    elapsed=elapsed,
                )
                self.completed += 1
                if reply.get("done"):
                    break
            try:
                client.call("bye", worker_id=self.worker_id)
            except (RpcError, ProtocolError, OSError):
                pass
        finally:
            stop_heartbeat()
            beat_client.close()
            client.close()
        return self.completed


def _local_agent_main(
    host: str, port: int, sys_paths: List[str], name: str
) -> None:  # pragma: no cover - child process
    replay_sys_paths(sys_paths)
    # Forked inside the coordinator's event loop: drop its SIGINT handler
    # so Ctrl-C stops this agent too instead of cancelling a dead loop.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        WorkerAgent(host, port, name=name).run()
    except (RpcError, ProtocolError, OSError):
        # Coordinator gone (or we were raced by shutdown): nothing to do.
        pass


# --------------------------------------------------------------- live status


def coordinator_endpoint(
    directory: Union[str, Path]
) -> Optional[Tuple[str, int]]:
    """Read the endpoint a live coordinator advertised, if any."""
    path = Path(directory) / COORDINATOR_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return str(payload["host"]), int(payload["port"])
    except (OSError, ValueError, KeyError):
        return None


def live_status(host: str, port: int, timeout: float = 3.0) -> Dict:
    """One ``status`` RPC against a running coordinator."""
    client = RpcClient(host, port, timeout=timeout)
    with client:
        return client.call("status")


def render_live_status(status: Dict) -> str:
    """Human-readable live coordinator status (``repro campaign status``)."""
    state = "complete" if status.get("done") else "running"
    lines = [
        f"campaign {status.get('campaign')} [live, {state}] — "
        f"{status.get('completed')}/{status.get('total')} runs complete, "
        f"{status.get('failed')} failed, {status.get('pending')} queued, "
        f"{status.get('leased')} leased",
    ]
    for worker in status.get("workers", []):
        lines.append(
            f"  worker {worker['worker']}"
            f" [{'alive' if worker['alive'] else 'gone'}]"
            f": {worker['completed']} done, "
            f"{worker['inflight']} inflight, beat {worker['beat_age']:.2f}s ago"
        )
    if status.get("digest"):
        lines.append(f"  digest : {status['digest']}")
    return "\n".join(lines)


__all__ = [
    "COORDINATOR_NAME",
    "Coordinator",
    "DistributedError",
    "MAX_INFLIGHT_PER_WORKER",
    "RUNNER_MODES",
    "SUMMARY_NAME",
    "WorkerAgent",
    "coordinator_endpoint",
    "live_status",
    "render_live_status",
]
