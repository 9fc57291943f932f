"""Distributed campaign execution tests.

The contract under test: a campaign queued across N workers — local
forks or remote TCP agents speaking the length-prefixed JSON-RPC
protocol — converges to an aggregate ``results.json`` /
``digest.txt`` that is byte-identical to :meth:`Campaign.finalize` over
the same spec's payloads simulated in-process, while worker deaths,
duplicate, late or stale reports and greedy workers all degrade
gracefully instead of corrupting the merge.
"""

import asyncio
import json
import os
import shutil
import socket
import struct
import threading
import time

import pytest

from repro.harness.campaign import Campaign, CampaignSpec, run_campaign
from repro.harness.distributed import (
    COORDINATOR_NAME,
    Coordinator,
    DistributedError,
    coordinator_endpoint,
    live_status,
    render_live_status,
)
from repro.harness.executor import Executor, _simulate
from repro.harness.ioutils import iter_stale_tmp
from repro.harness.protocol import (
    ERR_BAD_REQUEST,
    ERR_THROTTLED,
    ERR_UNKNOWN_METHOD,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    RpcClient,
    RpcError,
    decode_body,
    encode_frame,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.harness.supervisor import RetryPolicy
from repro.obs.campaign import CampaignTelemetry

APP = "volrend"
CORES = 4
MEMOPS = 120

KEY_A = "a" * 64


def _spec(name="dist", **overrides):
    defaults = dict(
        name=name, kind="protocols", apps=(APP,), cores=(CORES,), memops=MEMOPS
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _executor(tmp_path, tag="cache"):
    """Isolated executor: private cache dir so tests never cross-talk."""
    return Executor(workers=1, cache_dir=tmp_path / tag, use_cache=True)


def _in_process_digest(directory, spec):
    """Finalize ``spec`` over payloads simulated in-process, no engine."""
    campaign = Campaign.create(directory, spec)
    payloads = {
        key: _simulate(request)[0]
        for key, request in zip(campaign.keys, campaign.plan.requests)
    }
    return campaign.finalize(payloads, [])


# ----------------------------------------------------------- wire framing


class TestProtocolFraming:
    def _pair(self):
        return socket.socketpair()

    def test_frame_round_trip(self):
        left, right = self._pair()
        try:
            send_frame(left, {"id": 1, "method": "lease", "params": {}})
            assert recv_frame(right) == {
                "id": 1, "method": "lease", "params": {},
            }
        finally:
            left.close()
            right.close()

    def test_frames_are_canonical_compact_json(self):
        frame = encode_frame({"b": 1, "a": 2})
        (length,) = struct.unpack(">I", frame[:4])
        assert frame[4:] == b'{"a":2,"b":1}'
        assert length == len(frame) - 4

    def test_clean_eof_between_frames_is_none(self):
        left, right = self._pair()
        try:
            left.close()
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_eof_mid_frame_is_a_protocol_error(self):
        left, right = self._pair()
        try:
            left.sendall(encode_frame({"x": 1})[:-3])
            left.close()
            with pytest.raises(ProtocolError):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_announcement_is_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_non_json_body_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_body(b"not json")
        with pytest.raises(ProtocolError):
            decode_body(b"[1, 2]")  # arrays are not valid messages

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:7471") == ("127.0.0.1", 7471)
        for bad in ("localhost", ":7471", "host:", "host:abc"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)


# ----------------------------------------------------- coordinator RPC


class _CoordinatorHarness:
    """Run a Coordinator on a background event loop so blocking
    ``RpcClient`` calls can drive it synchronously from the test."""

    def __init__(self, campaign, **kwargs):
        self.coordinator = Coordinator(campaign, **kwargs)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self._thread.start()
        self.host, self.port = asyncio.run_coroutine_threadsafe(
            self.coordinator.start(), self.loop
        ).result(timeout=10)

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.coordinator.stop(), self.loop
        ).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        self.loop.close()


@pytest.fixture
def harness(tmp_path):
    campaign = Campaign.create(tmp_path / "camp", _spec())
    instance = _CoordinatorHarness(
        campaign,
        executor=_executor(tmp_path),
        runner="sleep",
        retry=RetryPolicy(max_attempts=2, unit=0.0),
    )
    yield instance
    instance.close()


def _client(harness):
    return RpcClient(harness.host, harness.port, timeout=5.0)


def _serve(client, name="t"):
    return client.call(
        "serve", worker=name, pid=os.getpid(), protocol=PROTOCOL_VERSION
    )


def _expiring_harness(tmp_path):
    """Leases expire after 0.3 s; a retry is leasable at once."""
    campaign = Campaign.create(tmp_path / "camp", _spec())
    return _CoordinatorHarness(
        campaign,
        executor=_executor(tmp_path),
        runner="sleep",
        retry=RetryPolicy(max_attempts=3, unit=0.0),
        lease_timeout=0.3,
        poll_interval=0.05,
    )


def _wait_until_nothing_leased(client):
    deadline = time.monotonic() + 5.0
    while client.call("status")["leased"]:
        assert time.monotonic() < deadline, "lease never expired"
        time.sleep(0.05)


def _sleep_result(client, worker, key):
    return client.call(
        "result", worker_id=worker, key=key,
        payload={"mode": "sleep", "key": key},
    )


class _SlowRetryOf(RetryPolicy):
    """Backs off ``seconds`` on ``key``'s retries, not at all on others'."""

    def __init__(self, key, seconds):
        super().__init__(max_attempts=3, unit=0.0)
        self.key, self.seconds = key, seconds

    def delay_seconds(self, key, attempt):
        return self.seconds if key == self.key else 0.0


def _journal_bytes(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("journal*.jsonl"))
    }


class TestCoordinatorRpc:
    def test_serve_handshake(self, harness):
        with _client(harness) as client:
            hello = _serve(client)
        assert hello["worker_id"] == "w0"
        assert hello["campaign"] == "dist"
        assert hello["runner"] == {"mode": "sleep", "seconds": 0.0}

    def test_protocol_version_mismatch_is_rejected(self, harness):
        with _client(harness) as client:
            with pytest.raises(RpcError) as excinfo:
                client.call("serve", protocol=PROTOCOL_VERSION + 1)
        assert excinfo.value.code == ERR_BAD_REQUEST

    def test_protocol_1_worker_is_refused_at_the_handshake(self, harness):
        """A 1.4 worker would call ``steal``: it fails at ``serve`` with a
        400, not mid-campaign with a 404."""
        assert PROTOCOL_VERSION == 2
        with _client(harness) as client:
            with pytest.raises(RpcError) as excinfo:
                client.call("serve", pid=os.getpid(), protocol=1)
        assert excinfo.value.code == ERR_BAD_REQUEST

    def test_unknown_method_is_404(self, harness):
        # ``submit`` was removed in 1.4 and ``steal`` in 1.5: they answer
        # like any unknown method.
        with _client(harness) as client:
            for method in ("frobnicate", "submit", "steal"):
                with pytest.raises(RpcError) as excinfo:
                    client.call(method)
                assert excinfo.value.code == ERR_UNKNOWN_METHOD, method

    def test_unregistered_worker_cannot_lease(self, harness):
        with _client(harness) as client:
            with pytest.raises(RpcError) as excinfo:
                client.call("lease", worker_id="nope")
        assert excinfo.value.code == ERR_BAD_REQUEST

    def test_lease_result_drains_the_campaign(self, harness):
        with _client(harness) as client:
            worker = _serve(client)["worker_id"]
            first = client.call("lease", worker_id=worker)
            assert first["kind"] == "run"
            _sleep_result(client, worker, first["key"])
            second = client.call("lease", worker_id=worker)
            assert second["kind"] == "run"
            reply = _sleep_result(client, worker, second["key"])
            assert reply == {"accepted": True, "done": True}
            status = client.call("status", worker_id=worker)
        assert status["done"] is True
        assert status["digest"]
        assert [w["completed"] for w in status["workers"]] == [2]

    def test_one_worker_leases_the_whole_plan_in_order(self, tmp_path):
        campaign = Campaign.create(tmp_path / "camp", _spec(apps=(APP, "fft")))
        harness = _CoordinatorHarness(
            campaign, executor=_executor(tmp_path), runner="sleep"
        )
        granted = []
        try:
            with _client(harness) as client:
                worker = _serve(client)["worker_id"]
                for _ in campaign.keys:
                    grant = client.call("lease", worker_id=worker)
                    assert grant["kind"] == "run", granted
                    granted.append(grant["key"])
                    _sleep_result(client, worker, grant["key"])
                status = client.call("status")
        finally:
            harness.close()
        assert granted == campaign.keys
        assert status["done"] is True

    def test_backing_off_retry_does_not_block_the_queue(self, tmp_path):
        """A's retry waits out its backoff at the head of the queue while
        B's retry, queued behind it and due at once, is granted."""
        campaign = Campaign.create(tmp_path / "camp", _spec())
        first, second = campaign.keys
        harness = _CoordinatorHarness(
            campaign,
            executor=_executor(tmp_path),
            runner="sleep",
            retry=_SlowRetryOf(first, 1.0),
        )
        try:
            with _client(harness) as a, _client(harness) as b:
                worker_a = _serve(a, "a")["worker_id"]
                worker_b = _serve(b, "b")["worker_id"]
                assert a.call("lease", worker_id=worker_a)["key"] == first
                assert b.call("lease", worker_id=worker_b)["key"] == second
                a.call("fail", worker_id=worker_a, key=first, detail="x")
                b.call("fail", worker_id=worker_b, key=second, detail="x")
                retry = b.call("lease", worker_id=worker_b)
                assert (retry["key"], retry["attempt"]) == (second, 2)
                assert a.call("lease", worker_id=worker_a)["kind"] == "empty"
                deadline = time.monotonic() + 5.0
                while True:
                    due = a.call("lease", worker_id=worker_a)
                    if due["kind"] == "run":
                        break
                    assert time.monotonic() < deadline, "retry never granted"
                    time.sleep(0.05)
        finally:
            harness.close()
        assert (due["key"], due["attempt"]) == (first, 2)

    def test_lease_cap_throttles_greedy_workers(self, harness):
        with _client(harness) as client:
            worker = _serve(client)["worker_id"]
            grant = client.call("lease", worker_id=worker)
            assert grant["kind"] == "run"
            with pytest.raises(RpcError) as excinfo:
                client.call("lease", worker_id=worker)
        assert excinfo.value.code == ERR_THROTTLED

    def test_duplicate_result_is_idempotent(self, harness):
        with _client(harness) as client:
            worker = _serve(client)["worker_id"]
            grant = client.call("lease", worker_id=worker)
            payload = {"mode": "sleep", "key": grant["key"]}
            first = client.call(
                "result", worker_id=worker, key=grant["key"], payload=payload
            )
            second = client.call(
                "result", worker_id=worker, key=grant["key"], payload=payload
            )
        assert first["accepted"] is True
        assert second["accepted"] is False

    def test_fail_requeues_then_gives_up(self, harness):
        with _client(harness) as client:
            worker = _serve(client)["worker_id"]
            grant = client.call("lease", worker_id=worker)
            reply = client.call(
                "fail", worker_id=worker, key=grant["key"], detail="boom"
            )
            assert reply == {"requeued": True, "giveup": False}
            # max_attempts=2, unit=0: the retry is immediately leasable.
            # It rejoined at the rear, so drain the other queued run first
            # if it is granted ahead of the retried one.
            deadline = time.monotonic() + 5.0
            while True:
                again = client.call("lease", worker_id=worker)
                if again["kind"] == "run":
                    if again["key"] == grant["key"]:
                        break
                    _sleep_result(client, worker, again["key"])
                    continue
                assert time.monotonic() < deadline, "retry never re-leased"
                time.sleep(0.05)
            assert again["attempt"] == 2
            reply = client.call(
                "fail", worker_id=worker, key=grant["key"], detail="boom"
            )
            assert reply == {"requeued": False, "giveup": True}
            status = client.call("status", worker_id=worker)
        assert status["failed"] == 1
        counters = harness.coordinator.telemetry.counters
        assert counters["requeues.total"] == 1
        assert counters["giveups.total"] == 1

    def test_stale_fail_leaves_the_next_holders_lease(self, tmp_path):
        """A's lease expires and B re-leases the key: A's late ``fail``
        must not requeue B's lease."""
        harness = _expiring_harness(tmp_path)
        try:
            with _client(harness) as a, _client(harness) as b:
                worker_a = _serve(a, "a")["worker_id"]
                worker_b = _serve(b, "b")["worker_id"]
                grant = a.call("lease", worker_id=worker_a)
                _wait_until_nothing_leased(a)
                harness.coordinator.lease_timeout = None  # B's lease stays
                # A's expired key rejoined behind the other run: B
                # completes that one, then re-leases A's key.
                other = b.call("lease", worker_id=worker_b)
                assert other["key"] != grant["key"]
                _sleep_result(b, worker_b, other["key"])
                again = b.call("lease", worker_id=worker_b)
                assert (again["key"], again["attempt"]) == (grant["key"], 2)
                journals = _journal_bytes(tmp_path / "camp")
                reply = a.call(
                    "fail", worker_id=worker_a, key=grant["key"], detail="late"
                )
                # Read before B's connection closes: that requeues its lease.
                status = a.call("status")
                assert _journal_bytes(tmp_path / "camp") == journals
        finally:
            harness.close()
        assert reply == {"requeued": False, "giveup": False}
        assert (status["leased"], status["pending"]) == (1, 0)
        assert status["counters"]["retries.total"] == 1

    def test_stale_fail_of_an_unleased_key_is_ignored(self, tmp_path):
        """A's lease expires and nobody holds the key yet: A's late
        ``fail`` gets the usual reply, not a 400 that would end a remote
        worker. A key outside the plan still gets a 400."""
        harness = _expiring_harness(tmp_path)
        try:
            with _client(harness) as client:
                worker = _serve(client)["worker_id"]
                grant = client.call("lease", worker_id=worker)
                _wait_until_nothing_leased(client)
                journals = _journal_bytes(tmp_path / "camp")
                reply = client.call(
                    "fail", worker_id=worker, key=grant["key"], detail="late"
                )
                status = client.call("status")
                assert _journal_bytes(tmp_path / "camp") == journals
                with pytest.raises(RpcError) as excinfo:
                    client.call("fail", worker_id=worker, key=KEY_A)
        finally:
            harness.close()
        assert reply == {"requeued": False, "giveup": False}
        assert (status["leased"], status["pending"], status["failed"]) == (
            0, 2, 0,
        )
        assert status["counters"]["retries.total"] == 1
        assert excinfo.value.code == ERR_BAD_REQUEST

    def test_peak_workers_counts_agents_alive_at_once(self, harness):
        """A replacement that joins after its predecessor was lost does
        not count as extra concurrency: three handshakes, at most two
        agents alive at once."""
        first, second, third = (_client(harness) for _ in range(3))
        try:
            assert _serve(first)["worker_id"] == "w0"
            _serve(second)
            assert harness.coordinator.peak_workers == 2
            first.close()  # EOF on a registered connection: w0 is lost
            deadline = time.monotonic() + 10
            while harness.coordinator.workers["w0"].alive:
                assert time.monotonic() < deadline, "w0 was never marked lost"
                time.sleep(0.01)
            assert _serve(third)["worker_id"] == "w2"
        finally:
            for client in (first, second, third):
                client.close()
        assert len(harness.coordinator.workers) == 3
        assert harness.coordinator.peak_workers == 2

    def test_live_status_helpers(self, harness, tmp_path):
        assert coordinator_endpoint(tmp_path / "camp") == (
            harness.host, harness.port,
        )
        status = live_status(harness.host, harness.port)
        text = render_live_status(status)
        assert "campaign dist [live, running]" in text

    def test_late_result_after_terminal_failure_heals(self, tmp_path):
        """Lease A, let the lease expire into a terminal failure, report A
        late: A completes exactly once, and B — never leased — keeps the
        campaign open."""
        campaign = Campaign.create(tmp_path / "camp", _spec())
        harness = _CoordinatorHarness(
            campaign,
            executor=_executor(tmp_path),
            runner="sleep",
            retry=RetryPolicy(max_attempts=1, unit=0.0),
            lease_timeout=0.3,
            poll_interval=0.05,
        )
        try:
            with RpcClient(harness.host, harness.port, timeout=5.0) as client:
                worker = _serve(client)["worker_id"]
                grant = client.call("lease", worker_id=worker)
                deadline = time.monotonic() + 5.0
                while client.call("status")["failed"] == 0:
                    assert time.monotonic() < deadline, "lease never expired"
                    time.sleep(0.05)
                reply = client.call(
                    "result", worker_id=worker, key=grant["key"],
                    payload={"mode": "sleep", "key": grant["key"]},
                )
                status = client.call("status")
        finally:
            harness.close()
        assert reply == {"accepted": True, "done": False}
        assert status["done"] is False
        assert (status["completed"], status["failed"], status["pending"]) == (
            1, 0, 1,
        )

    def test_rejects_unknown_runner_mode(self, tmp_path):
        campaign = Campaign.create(tmp_path / "camp", _spec())
        with pytest.raises(DistributedError):
            Coordinator(campaign, runner="teleport")


# ------------------------------------------------------------- end to end


class TestDistributedEndToEnd:
    def test_digest_matches_single_box_byte_for_byte(self, tmp_path):
        spec = _spec()
        single = _in_process_digest(tmp_path / "single", spec)
        telemetry = CampaignTelemetry()
        report = run_campaign(
            tmp_path / "dist", spec,
            workers=2,
            executor=_executor(tmp_path, "cache-dist"),
            timeout=120,
            telemetry=telemetry,
        )
        assert report.ok and report.completed == report.total == 2
        assert report.digest == single
        single_bytes = (tmp_path / "single" / "results.json").read_bytes()
        dist_bytes = (tmp_path / "dist" / "results.json").read_bytes()
        assert dist_bytes == single_bytes
        assert (tmp_path / "dist" / "digest.txt").read_bytes() == (
            tmp_path / "single" / "digest.txt"
        ).read_bytes()
        # Distributed bookkeeping happened: one journal, worker joins,
        # no crash-unsafe debris, endpoint withdrawn after completion.
        assert list((tmp_path / "dist").glob("journal-shard*.jsonl")) == []
        assert telemetry.counters["workers.joined"] >= 1
        assert list(iter_stale_tmp(tmp_path / "dist")) == []
        assert not (tmp_path / "dist" / COORDINATOR_NAME).exists()

        # A resume reads the journal and agrees the campaign is already
        # finished (nothing re-executes).
        resumed = run_campaign(
            tmp_path / "dist", None,
            workers=1,
            executor=_executor(tmp_path, "cache-resume"),
        )
        assert resumed.resumed == resumed.total and resumed.executed == 0
        assert resumed.digest == single
        assert (tmp_path / "dist" / "results.json").read_bytes() == single_bytes

    def test_sleep_runner_is_worker_count_invariant_and_cache_isolated(
        self, tmp_path
    ):
        digests = []
        executor = _executor(tmp_path)
        for workers in (1, 2):
            telemetry = CampaignTelemetry()
            report = run_campaign(
                tmp_path / f"w{workers}", _spec(),
                workers=workers,
                executor=executor,
                runner="sleep",
                timeout=60,
                telemetry=telemetry,
            )
            assert report.ok
            digests.append(report.digest)
            # Sleep-mode payloads must never touch the sim result cache
            # (poisoning) nor complete from it (masquerading).
            assert telemetry.counters["runs.cache_hits"] == 0
        assert digests[0] == digests[1]
        assert list((tmp_path / "cache").glob("*.json")) == []

    def test_checkpoint_with_1_3_store_hits_resumes(self, tmp_path):
        """Version 1.3 journaled a result-store hit as a run record with
        ``source: "store"``; such a directory still resumes as complete."""
        spec = _spec()
        reference = _in_process_digest(tmp_path / "reference", spec)
        campaign = Campaign.create(tmp_path / "old", spec)
        for key, request in zip(campaign.keys, campaign.plan.requests):
            campaign.record_completion(key, _simulate(request)[0], "store", 0)
        report = run_campaign(
            tmp_path / "old", None,
            workers=1,
            executor=_executor(tmp_path),
            timeout=120,
        )
        assert report.resumed == report.total == 2
        assert report.executed == 0
        assert report.digest == reference

    def test_checkpoint_with_1_4_shard_journals_resumes(self, tmp_path):
        """Versions 1.2-1.4 journalled each run in ``journal-shard<k>``.
        Such a directory resumes: only the run whose records were lost
        executes, its record lands in ``journal.jsonl``, and nothing
        writes the shard journals."""
        spec = _spec("old", apps=(APP, "fft"))
        reference = tmp_path / "reference"
        run_campaign(
            reference, spec, workers=1,
            executor=Executor(workers=1, use_cache=False), timeout=120,
        )
        directory = tmp_path / "old"
        shutil.copytree(reference, directory)
        journal = directory / "journal.jsonl"
        header, *runs = journal.read_text().splitlines(keepends=True)
        assert [json.loads(line)["type"] for line in runs] == ["run"] * 4
        journal.write_text(header)
        for shard, line in enumerate(runs):
            (directory / f"journal-shard{shard}.jsonl").write_text(line)
        (directory / "journal-shard2.jsonl").write_text("")
        lost = json.loads(runs[2])["key"]
        shards = _journal_bytes(directory)
        del shards["journal.jsonl"]

        report = run_campaign(
            directory, None, workers=1,
            executor=Executor(workers=1, use_cache=False), timeout=120,
        )
        assert (report.resumed, report.executed) == (3, 1)
        for name in ("results.json", "digest.txt"):
            assert (directory / name).read_bytes() == (
                reference / name
            ).read_bytes()
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [(r["type"], r.get("key")) for r in records] == [
            ("header", None), ("run", lost),
        ]
        after = _journal_bytes(directory)
        del after["journal.jsonl"]
        assert after == shards

    def test_chaos_worker_kill_recovers_and_digest_holds(self, tmp_path):
        # 4 runs over 2 workers: the first grant after the first result
        # goes to a worker that is SIGKILLed holding that lease.
        spec = _spec("chaos", apps=(APP, "fft"))
        reference = _in_process_digest(tmp_path / "reference", spec)
        telemetry = CampaignTelemetry()
        report = run_campaign(
            tmp_path / "chaos", spec,
            workers=2,
            executor=_executor(tmp_path, "cache-chaos"),
            retry=RetryPolicy(max_attempts=3, unit=0.0),
            chaos_kill_after=1,
            timeout=120,
            telemetry=telemetry,
        )
        assert report.ok
        assert report.digest == reference
        assert report.workers == 2  # the respawned agent is not a third
        assert telemetry.counters["workers.lost"] >= 1
        assert telemetry.counters["retries.crashed"] >= 1
        assert list(iter_stale_tmp(tmp_path / "chaos")) == []

    def test_trace_sharded_campaign_digest_matches_single_box(self, tmp_path):
        """One recorded trace fanned across workers by chunk window.

        A ``kind="trace"`` campaign cuts the trace into barrier-safe
        windows (one run per window per protocol); the distributed fleet
        must land byte-for-byte on the in-process digest, and every
        window row must be a genuine shard (cold windowed replay, keyed
        by the trace's content digest).
        """
        from repro.traces import record_app_trace

        trace = tmp_path / "radix.wtr"
        info = record_app_trace(
            trace, APP, CORES, MEMOPS, trace_seed=3, chunk_records=16
        )
        spec = CampaignSpec(
            name="trace-dist",
            kind="trace",
            protocols=("baseline", "widir"),
            trace_path=str(trace),
            trace_shards=3,
        )
        single = _in_process_digest(tmp_path / "single", spec)
        campaign = Campaign.load(tmp_path / "single")
        assert any("shard" in label for label in campaign.labels)
        sharded = [r for r in campaign.plan.requests if r.trace_window is not None]
        assert len(sharded) == len(campaign.plan.requests) >= 4
        assert all(r.trace_id == info["trace_id"] for r in sharded)

        report = run_campaign(
            tmp_path / "dist", spec,
            workers=2,
            executor=_executor(tmp_path, "cache-dist-trace"),
            timeout=120,
        )
        assert report.ok and report.completed == len(campaign.labels)
        assert report.digest == single
        assert (tmp_path / "dist" / "results.json").read_bytes() == (
            tmp_path / "single" / "results.json"
        ).read_bytes()
