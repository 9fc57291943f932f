"""Fault-tolerant, crash-safe-resumable experiment campaigns.

A *campaign* is a declared sweep (an
:class:`~repro.harness.executor.ExperimentPlan` built deterministically
from a :class:`CampaignSpec`) executed by :func:`run_campaign` with
durable checkpoints, so the harness survives the same fault classes the
WiDir protocol itself is built around (collisions -> BRS backoff; here:
worker crashes / hangs / timeouts -> seeded retry with the same
:class:`~repro.wireless.mac.BackoffPolicy` shape). There is one engine:
the :class:`~repro.harness.distributed.Coordinator`, driving local forked
worker agents and/or remote ones; this module owns the directory it
writes.

On-disk layout (all writes crash-safe; see :mod:`repro.harness.ioutils`)::

    <dir>/campaign.json     spec + expected run keys (atomic, versioned)
    <dir>/journal.jsonl     journal header (schema + name)
    <dir>/journal-shard<k>.jsonl
                            append-only checkpoint journals, one writer
                            (the coordinator) per shard: one fsynced
                            record per completed run, per failed attempt
                            and per give-up; a torn final line (SIGKILL
                            mid-append) is dropped on replay
    <dir>/runs/<key>.json   canonical result payloads (atomic, written
                            *before* the journal records completion)
    <dir>/results.json      aggregate label -> payload map (atomic)
    <dir>/digest.txt        sha256 of results.json — the resume-identity
                            contract: interrupted+resumed == uninterrupted
    <dir>/provenance.json   which runs made it, which are missing and why
    <dir>/coordinator.json  endpoint of the live coordinator (while running)
    <dir>/distributed.json  worker/shard/counter accounting (when done)

The aggregate is a pure function of the completed payloads (sorted labels,
canonical JSON), so *when* and *how often* a campaign was interrupted is
invisible in ``results.json``/``digest.txt`` — the property the kill/resume
tests and the ``campaign-smoke`` CI job assert byte-for-byte.

Graceful degradation: a run that exhausts its retries is recorded as
``failed`` in the journal and listed (with its attempt history) in
``provenance.json``; the aggregate, figures, and sweeps render from the
runs that *did* complete instead of aborting the campaign
(:class:`CampaignResultSource` + the partial-rendering support in
:mod:`repro.harness.figures`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.coherence.backend import get_backend
from repro.config.presets import baseline_config, protocol_config, widir_config
from repro.harness.executor import (
    Executor,
    ExperimentPlan,
    _default_workers,
    run_key,
)
from repro.harness.ioutils import (
    append_jsonl,
    atomic_write_json,
    atomic_write_text,
    iter_stale_tmp,
    quarantine,
    read_jsonl_many,
    remove_stale_tmp,
)
from repro.harness.runner import SimulationResult
from repro.harness.supervisor import RetryPolicy
from repro.harness.sweeps import label_for, mac_variants
from repro.wireless.mac import get_mac

#: Bump on any change to the journal / manifest / aggregate shapes.
CHECKPOINT_SCHEMA_VERSION = 1

MANIFEST_NAME = "campaign.json"
JOURNAL_NAME = "journal.jsonl"
#: Distributed shards journal independently (one writer per file, same
#: record schema); replay merges ``journal.jsonl`` + every shard journal.
SHARD_JOURNAL_PREFIX = "journal-shard"
SHARD_JOURNAL_GLOB = "journal-shard*.jsonl"
RUNS_DIR = "runs"
RESULTS_NAME = "results.json"
DIGEST_NAME = "digest.txt"
PROVENANCE_NAME = "provenance.json"

#: Sweep kinds a spec can declare (each builds its plan deterministically).
SWEEP_KINDS = ("protocols", "thresholds", "trace")


class CampaignError(RuntimeError):
    """Raised for unusable campaign directories (not for worker faults)."""


# ---------------------------------------------------------------- the spec


@dataclass(frozen=True)
class CampaignSpec:
    """Deterministic description of a campaign's run matrix.

    The spec — not the plan — is what the manifest persists: resuming
    rebuilds the plan from the spec and cross-checks the recomputed run
    keys against the manifest, so a resumed campaign provably executes the
    same matrix the interrupted one declared.
    """

    name: str
    kind: str = "protocols"
    apps: Tuple[str, ...] = ()
    cores: Tuple[int, ...] = (16,)
    memops: Optional[int] = None
    seed: int = 42
    thresholds: Tuple[int, ...] = (2, 3, 4, 5)
    trace_seed: int = 0
    #: Backends a ``kind="protocols"`` campaign compares; any subset of
    #: :func:`repro.coherence.backend.backend_names`. Validated at spec
    #: construction so a typo fails before any run is journalled.
    protocols: Tuple[str, ...] = ("baseline", "widir")
    #: MAC backends crossed over every *wireless* protocol in the matrix
    #: (wired protocols run once regardless); any subset of
    #: :func:`repro.wireless.mac.mac_names`. The default single-point
    #: dimension reproduces every pre-MAC-zoo matrix exactly.
    macs: Tuple[str, ...] = ("brs",)
    #: ``kind="trace"`` only: the recorded trace file the campaign fans
    #: out, its pinned content digest (read from the file when empty),
    #: and how many barrier-safe shards to cut it into (<= 1 replays the
    #: whole trace as a single run per protocol).
    trace_path: str = ""
    trace_id: str = ""
    trace_shards: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise ValueError(
                f"unknown sweep kind {self.kind!r}; known: {SWEEP_KINDS}"
            )
        if self.kind == "trace":
            if not self.trace_path:
                raise ValueError(
                    "a kind='trace' campaign needs trace_path"
                )
        elif not self.apps:
            raise ValueError("a campaign needs at least one app")
        if not self.protocols:
            raise ValueError("a campaign needs at least one protocol")
        if not self.macs:
            raise ValueError("a campaign needs at least one MAC")
        for protocol in self.protocols:
            get_backend(protocol)  # raises ValueError naming the known set
        for mac in self.macs:
            get_mac(mac)  # raises ValueError naming the known set

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "apps": list(self.apps),
            "cores": list(self.cores),
            "memops": self.memops,
            "seed": self.seed,
            "thresholds": list(self.thresholds),
            "trace_seed": self.trace_seed,
            "protocols": list(self.protocols),
            "macs": list(self.macs),
            "trace_path": self.trace_path,
            "trace_id": self.trace_id,
            "trace_shards": self.trace_shards,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignSpec":
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            apps=tuple(payload["apps"]),
            cores=tuple(payload["cores"]),
            memops=payload.get("memops"),
            seed=payload.get("seed", 42),
            thresholds=tuple(payload.get("thresholds", (2, 3, 4, 5))),
            trace_seed=payload.get("trace_seed", 0),
            # Manifests written before the pluggable-backend refactor
            # predate this key; they always meant the classic pair.
            protocols=tuple(payload.get("protocols", ("baseline", "widir"))),
            # Manifests written before MAC backends were pluggable predate
            # this key; they always meant the paper's BRS discipline.
            macs=tuple(payload.get("macs", ("brs",))),
            trace_path=payload.get("trace_path", ""),
            trace_id=payload.get("trace_id", ""),
            trace_shards=payload.get("trace_shards", 0),
        )

    def build(self) -> Tuple[ExperimentPlan, List[str]]:
        """The run matrix: an :class:`ExperimentPlan` plus aligned labels."""
        plan = ExperimentPlan()
        labels: List[str] = []

        def add(app: str, config) -> None:
            plan.add(app, config, self.memops, self.trace_seed)
            labels.append(label_for(app, config))

        if self.kind == "trace":
            return self._build_trace()
        if self.kind == "protocols":
            for app in self.apps:
                for cores in self.cores:
                    for protocol in self.protocols:
                        base = protocol_config(
                            protocol, num_cores=cores, seed=self.seed
                        )
                        for config in mac_variants(base, self.macs):
                            add(app, config)
        else:  # thresholds (x MACs: the MAC x protocol x threshold matrix)
            for app in self.apps:
                for cores in self.cores:
                    add(app, baseline_config(num_cores=cores, seed=self.seed))
                    for threshold in self.thresholds:
                        base = widir_config(
                            num_cores=cores,
                            max_wired_sharers=threshold,
                            seed=self.seed,
                        )
                        for config in mac_variants(base, self.macs):
                            add(app, config)
        return plan, labels

    def _build_trace(self) -> Tuple[ExperimentPlan, List[str]]:
        """``kind="trace"``: fan one recorded trace across shard windows.

        Shard boundaries come from the barrier-safe planner over the
        trace's footer index — a pure function of the file and
        ``trace_shards`` — so a resumed (or distributed) campaign
        recomputes the identical matrix. Each shard window is replayed
        cold and kept as its own result, labelled ``…/shardNNN``.
        """
        from repro.traces.format import TraceReader
        from repro.traces.sharding import plan_windows

        plan = ExperimentPlan()
        labels: List[str] = []
        with TraceReader(self.trace_path) as reader:
            trace_id = self.trace_id or reader.trace_id
            app = reader.app or "trace"
            num_cores = reader.num_cores
            windows = None
            if self.trace_shards > 1:
                max_chunks = max(
                    reader.num_chunks(core) for core in range(num_cores)
                )
                stride = max(1, max_chunks // self.trace_shards)
                windows = plan_windows(
                    reader, stride, max_windows=self.trace_shards
                )
        stem = Path(self.trace_path).stem or "trace"
        configs = [
            config
            for protocol in self.protocols
            for config in mac_variants(
                protocol_config(protocol, num_cores=num_cores, seed=self.seed),
                self.macs,
            )
        ]
        for config in configs:
            base = label_for(app, config)
            if windows is None:
                plan.add_trace(
                    self.trace_path, config, trace_id=trace_id, app=app
                )
                labels.append(f"{base}/{stem}")
            else:
                for index, window in enumerate(windows):
                    plan.add_trace(
                        self.trace_path,
                        config,
                        trace_id=trace_id,
                        window=tuple(tuple(span) for span in window),
                        app=app,
                    )
                    labels.append(f"{base}/{stem}/shard{index:03d}")
        return plan, labels


# ------------------------------------------------------------------ reports


@dataclass
class CampaignReport:
    """Outcome of one :func:`run_campaign` invocation."""

    name: str
    directory: Path
    total: int
    completed: int
    failed: List[Dict] = field(default_factory=list)
    resumed: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    executed: int = 0
    retries: int = 0
    digest: str = ""
    workers: int = 0
    shards: int = 0
    stolen: int = 0
    wall_seconds: float = 0.0
    #: The ``distributed.json`` accounting (per shard, per worker).
    summary: Dict = field(default_factory=dict)
    telemetry: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return not self.failed

    def render(self) -> str:
        lines = [
            f"campaign {self.name}: {self.completed}/{self.total} runs "
            f"complete ({self.resumed} resumed, {self.cache_hits} cache "
            f"hits, {self.store_hits} store hits, {self.executed} simulated, "
            f"{self.retries} retries) across {self.workers} workers / "
            f"{self.shards} shards ({self.stolen} stolen) in "
            f"{self.wall_seconds:.2f}s",
            f"  digest : {self.digest}",
            f"  results: {self.directory / RESULTS_NAME}",
        ]
        if self.failed:
            lines.append(
                f"  DEGRADED: {len(self.failed)} runs failed after retry "
                f"exhaustion (see {PROVENANCE_NAME}):"
            )
            for entry in self.failed:
                lines.append(
                    f"    - {entry['label']}: {entry['reason']} "
                    f"({entry['attempts']} attempts)"
                )
        return "\n".join(lines)


@dataclass
class CampaignStatus:
    """Point-in-time view of a campaign directory (``campaign status``)."""

    name: str
    directory: Path
    total: int
    completed: int
    failed: List[Dict]
    pending: List[str]
    attempts: int
    retries_by_kind: Dict[str, int]
    backoff_seconds: float
    digest: Optional[str]
    journal_bad_lines: List[int]

    @property
    def done(self) -> bool:
        return self.completed == self.total

    def render(self) -> str:
        state = (
            "complete"
            if self.done
            else ("degraded" if self.failed else "in progress")
        )
        lines = [
            f"campaign {self.name} [{state}] — "
            f"{self.completed}/{self.total} runs complete, "
            f"{len(self.failed)} failed, {len(self.pending)} pending",
            f"  attempts  : {self.attempts} "
            f"(retries: {sum(self.retries_by_kind.values())}"
            + (
                " — "
                + ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.retries_by_kind.items())
                )
                if self.retries_by_kind
                else ""
            )
            + ")",
        ]
        if self.backoff_seconds:
            lines.append(f"  backoff   : {self.backoff_seconds:.3f}s total")
        if self.digest:
            lines.append(f"  digest    : {self.digest}")
        if self.journal_bad_lines:
            lines.append(
                f"  WARNING   : journal lines {self.journal_bad_lines} "
                "were corrupt and ignored"
            )
        for entry in self.failed:
            lines.append(
                f"  failed    : {entry['label']} — {entry['reason']} "
                f"({entry['attempts']} attempts)"
            )
        for label in self.pending[:8]:
            lines.append(f"  pending   : {label}")
        if len(self.pending) > 8:
            lines.append(f"  pending   : ... {len(self.pending) - 8} more")
        if not self.done:
            lines.append(
                f"  resume with: repro campaign resume {self.directory}"
            )
        return "\n".join(lines)


# -------------------------------------------------------------- result source


class CampaignResultSource(Executor):
    """An :class:`Executor` that *serves* campaign results, never simulates.

    Figures and sweeps accept ``executor=``; handing them a result source
    renders them from a campaign's completed payloads. Requests whose run
    is missing (still pending, or failed after retry exhaustion) yield
    ``None`` — the partial-rendering path in :mod:`repro.harness.figures`
    — unless ``strict`` is set.
    """

    def __init__(self, payloads: Dict[str, Dict], strict: bool = False):
        super().__init__(workers=1, use_cache=False)
        self._payloads = dict(payloads)
        self.strict = strict
        #: Run keys requested but not available, in request order.
        self.missing: List[str] = []

    def map_runs(self, plan: ExperimentPlan) -> List[Optional[SimulationResult]]:
        results: List[Optional[SimulationResult]] = []
        for request in plan.requests:
            key = run_key(request)
            payload = self._payloads.get(key)
            if payload is None:
                if self.strict:
                    raise CampaignError(
                        f"campaign is missing run {key} "
                        f"({request.app} on {request.config.protocol})"
                    )
                if key not in self.missing:
                    self.missing.append(key)
                results.append(None)
            else:
                results.append(SimulationResult.from_dict(payload))
        return results


# ----------------------------------------------------------------- campaign


class Campaign:
    """One durable campaign directory: create, load, journal, aggregate."""

    def __init__(self, directory: Union[str, Path], spec: CampaignSpec):
        self.directory = Path(directory)
        self.spec = spec
        self.plan, self.labels = spec.build()
        self.keys = [run_key(request) for request in self.plan.requests]
        #: label -> run key, insertion-ordered like the plan.
        self.key_for_label: Dict[str, str] = dict(zip(self.labels, self.keys))
        if len(self.key_for_label) != len(self.labels):
            raise CampaignError("campaign labels must be unique")

    # ------------------------------------------------------------ plumbing

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    def shard_journal_path(self, shard: int) -> Path:
        """Journal for one distributed shard (single-writer: the coordinator)."""
        return self.directory / f"{SHARD_JOURNAL_PREFIX}{shard}.jsonl"

    def journal_paths(self) -> List[Path]:
        """Every journal replay reads: the main one, then shards sorted."""
        paths = [self.journal_path]
        paths.extend(sorted(self.directory.glob(SHARD_JOURNAL_GLOB)))
        return paths

    @property
    def runs_dir(self) -> Path:
        return self.directory / RUNS_DIR

    def _payload_path(self, key: str) -> Path:
        return self.runs_dir / f"{key}.json"

    def _journal(self, record: Dict, shard: Optional[int] = None) -> None:
        """Append one versioned record to the main or a shard journal."""
        path = (
            self.journal_path if shard is None
            else self.shard_journal_path(shard)
        )
        append_jsonl(path, dict(record, schema=CHECKPOINT_SCHEMA_VERSION))

    # ------------------------------------------------------ create / load

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        spec: CampaignSpec,
        exist_ok: bool = False,
    ) -> "Campaign":
        """Initialize a campaign directory (manifest + journal header)."""
        campaign = cls(directory, spec)
        manifest = campaign.directory / MANIFEST_NAME
        if manifest.exists() and not exist_ok:
            raise CampaignError(
                f"campaign already exists at {campaign.directory} "
                "(use resume, or a fresh --out directory)"
            )
        campaign.directory.mkdir(parents=True, exist_ok=True)
        campaign.runs_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            manifest,
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "spec": spec.to_dict(),
                "keys": campaign.key_for_label,
            },
        )
        if not campaign.journal_path.exists():
            campaign._journal({"type": "header", "name": spec.name})
        return campaign

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "Campaign":
        """Open an existing campaign directory, validating its manifest."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except OSError:
            raise CampaignError(
                f"{directory} is not a campaign directory "
                f"(missing {MANIFEST_NAME})"
            ) from None
        except ValueError:
            raise CampaignError(
                f"campaign manifest {manifest_path} is corrupt"
            ) from None
        schema = manifest.get("schema")
        if schema != CHECKPOINT_SCHEMA_VERSION:
            raise CampaignError(
                f"campaign schema {schema!r} is not supported "
                f"(expected {CHECKPOINT_SCHEMA_VERSION})"
            )
        campaign = cls(directory, CampaignSpec.from_dict(manifest["spec"]))
        if manifest.get("keys") != campaign.key_for_label:
            raise CampaignError(
                "campaign manifest keys do not match the rebuilt plan — "
                "the code's run-key schema changed underneath this "
                "campaign; re-run it from scratch"
            )
        return campaign

    # ------------------------------------------------------------- journal

    def _replay_journal(self) -> Tuple[Dict[str, Dict], List[Dict], List[int]]:
        """Replay the checkpoint journal.

        Returns ``(payloads, records, bad_lines)`` where ``payloads`` maps
        completed run keys to their canonical payloads (verified readable —
        a journal entry whose payload file is missing or corrupt is
        *demoted* back to pending, with the corrupt file quarantined).

        The coordinator journals per shard; every journal (main +
        ``journal-shard*.jsonl``) feeds one merged replay, so any shard
        count — and directories whose completions sit in the main
        journal — resume alike.
        """
        records, bad_lines = read_jsonl_many(self.journal_paths())
        payloads: Dict[str, Dict] = {}
        expected = set(self.keys)
        for record in records:
            if record.get("type") != "run":
                continue
            key = record.get("key")
            if key not in expected:
                continue
            if record.get("status") != "ok":
                continue
            if key in payloads:
                continue
            path = self._payload_path(key)
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError("payload must be a JSON object")
            except OSError:
                continue  # journaled but payload never landed: re-run
            except ValueError:
                quarantine(path)
                continue
            payloads[key] = payload
        return payloads, records, bad_lines

    def completed_payloads(self) -> Dict[str, Dict]:
        """key -> canonical payload for every durably completed run."""
        payloads, _, _ = self._replay_journal()
        return payloads

    # --------------------------------------------------------- recording

    def record_completion(
        self,
        key: str,
        payload: Dict,
        source: str,
        attempts: int,
        shard: Optional[int] = None,
    ) -> None:
        """Durably complete one run, optionally into a shard journal.

        Order is the crash-safety contract: the payload lands atomically
        in ``runs/`` *before* the journal says "ok", so a kill between the
        two re-runs the simulation instead of trusting a phantom
        completion.
        """
        atomic_write_json(self._payload_path(key), payload)
        self._journal(
            {
                "type": "run",
                "key": key,
                "status": "ok",
                "source": source,
                "attempts": attempts,
            },
            shard,
        )

    def record_attempt(
        self,
        key: str,
        attempt: int,
        status: str,
        detail: str,
        backoff: float = 0.0,
        shard: Optional[int] = None,
    ) -> None:
        """Journal one failed attempt (a retry, or the last before give-up).

        ``status`` is the failure kind (``crashed`` / ``timeout`` /
        ``hung`` / ``error``); ``campaign status`` counts retries by it.
        """
        self._journal(
            {
                "type": "attempt",
                "key": key,
                "attempt": attempt,
                "status": status,
                "detail": detail,
                "backoff": backoff,
            },
            shard,
        )

    def record_failure(
        self,
        key: str,
        detail: str,
        attempts: int,
        shard: Optional[int] = None,
    ) -> None:
        """Journal terminal retry exhaustion for one run."""
        self._journal(
            {
                "type": "run",
                "key": key,
                "status": "failed",
                "attempts": attempts,
                "detail": detail,
            },
            shard,
        )

    # ----------------------------------------------------------- aggregate

    def finalize(
        self, payloads: Dict[str, Dict], failed: List[Dict]
    ) -> str:
        """Write ``results.json`` / ``digest.txt`` / ``provenance.json``.

        Returns the sha256 digest. ``results.json`` is a pure, canonical
        function of the completed payloads — sorted labels, sorted keys,
        compact separators — so its bytes (and hence the digest) are
        independent of execution order, worker count, interruptions,
        retries, and timing. ``failed`` entries (``key``, ``reason``,
        ``attempts``) only annotate ``provenance.json``.
        """
        completed = {}
        missing = []
        failed_by_key = {entry["key"]: entry for entry in failed}
        for label in sorted(self.labels):
            key = self.key_for_label[label]
            if key in payloads:
                completed[label] = payloads[key]
            else:
                entry = failed_by_key.get(key)
                missing.append(
                    {
                        "label": label,
                        "key": key,
                        "reason": (
                            entry["reason"] if entry else "not yet executed"
                        ),
                        "attempts": entry["attempts"] if entry else 0,
                    }
                )
        results_blob = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "name": self.spec.name,
                "results": completed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        atomic_write_text(self.directory / RESULTS_NAME, results_blob)
        digest = hashlib.sha256(results_blob.encode("utf-8")).hexdigest()
        atomic_write_text(self.directory / DIGEST_NAME, digest + "\n")
        atomic_write_json(
            self.directory / PROVENANCE_NAME,
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "name": self.spec.name,
                "spec": self.spec.to_dict(),
                "total": len(self.labels),
                "completed": sorted(completed),
                "missing": missing,
                "partial": bool(missing),
                "digest": digest,
            },
        )
        return digest

    # -------------------------------------------------------------- status

    def status(self) -> CampaignStatus:
        """Summarize the journal without executing anything."""
        payloads, records, bad_lines = self._replay_journal()
        attempts = 0
        retries_by_kind: Dict[str, int] = {}
        backoff_seconds = 0.0
        failed_by_key: Dict[str, Dict] = {}
        for record in records:
            if record.get("type") == "attempt":
                attempts += 1
                kind = record.get("status") or "error"
                retries_by_kind[kind] = retries_by_kind.get(kind, 0) + 1
                backoff_seconds += float(record.get("backoff", 0.0))
            elif record.get("type") == "run":
                # The terminal successful attempt is not journaled as an
                # "attempt" record; count it here (cache hits cost none).
                attempts += (
                    record.get("status") == "ok"
                    and record.get("source") == "simulated"
                )
                if record.get("status") == "failed":
                    failed_by_key[record["key"]] = record
                elif record.get("status") == "ok":
                    failed_by_key.pop(record.get("key"), None)
        failed = []
        pending = []
        for label in self.labels:
            key = self.key_for_label[label]
            if key in payloads:
                continue
            entry = failed_by_key.get(key)
            if entry is not None:
                failed.append(
                    {
                        "label": label,
                        "key": key,
                        "reason": entry.get("detail", ""),
                        "attempts": entry.get("attempts", 0),
                    }
                )
            else:
                pending.append(label)
        digest_path = self.directory / DIGEST_NAME
        digest = None
        if digest_path.exists():
            digest = digest_path.read_text(encoding="utf-8").strip()
        return CampaignStatus(
            name=self.spec.name,
            directory=self.directory,
            total=len(self.labels),
            completed=sum(
                1 for label in self.labels
                if self.key_for_label[label] in payloads
            ),
            failed=failed,
            pending=pending,
            attempts=attempts,
            retries_by_kind=retries_by_kind,
            backoff_seconds=backoff_seconds,
            digest=digest,
            journal_bad_lines=bad_lines,
        )

    # -------------------------------------------------------------- access

    def result_source(self, strict: bool = False) -> CampaignResultSource:
        """A figures/sweeps-compatible executor over this campaign's runs."""
        return CampaignResultSource(self.completed_payloads(), strict=strict)

    def results(self) -> Dict[str, SimulationResult]:
        """label -> result for every completed run (partial-safe)."""
        payloads = self.completed_payloads()
        out: Dict[str, SimulationResult] = {}
        for label in self.labels:
            payload = payloads.get(self.key_for_label[label])
            if payload is not None:
                out[label] = SimulationResult.from_dict(payload)
        return out

    def stale_tmp_files(self) -> List[Path]:
        """Leftover ``*.tmp.*`` files (should always be empty post-run)."""
        return sorted(iter_stale_tmp(self.directory))


# -------------------------------------------------------------- conveniences


def run_campaign(
    directory: Union[str, Path],
    spec: Optional[CampaignSpec] = None,
    resume: bool = True,
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    **engine,
) -> CampaignReport:
    """Create-or-resume a campaign in ``directory`` and run it to the end.

    With ``spec`` given: creates the campaign if the directory is fresh,
    otherwise (``resume=True``) validates that the on-disk spec matches and
    resumes. Without ``spec``: loads an existing campaign.

    Every campaign runs on the one engine: a
    :class:`~repro.harness.distributed.Coordinator` that keeps ``workers``
    local agents alive (default: ``REPRO_WORKERS`` or the CPU count; ``0``
    serves remote ``campaign worker`` agents only) until every run is
    terminal, then returns the report. ``timeout`` bounds the whole
    campaign (:class:`~repro.harness.distributed.DistributedError` past
    it). ``engine`` goes to the coordinator: notably ``lease_timeout``
    (the per-run budget, ``None`` = unlimited), ``retry``, ``faults``,
    ``executor``, ``store``, ``telemetry`` and ``on_event``.
    """
    from repro.harness.distributed import Coordinator  # imports this module

    directory = Path(directory)
    if (directory / MANIFEST_NAME).exists():
        campaign = Campaign.load(directory)
        if spec is not None and campaign.spec != spec:
            raise CampaignError(
                f"campaign at {directory} was declared with a different "
                "spec; use a fresh --out directory"
            )
        if not resume:
            raise CampaignError(
                f"campaign already exists at {directory} (resume it, or "
                "pick a fresh --out directory)"
            )
        # A writer killed between its temp write and the rename leaves the
        # temp file behind; nothing reads it, so the resume collects it.
        remove_stale_tmp(directory)
    else:
        if spec is None:
            raise CampaignError(
                f"{directory} is not a campaign directory "
                f"(missing {MANIFEST_NAME})"
            )
        campaign = Campaign.create(directory, spec)

    workers = _default_workers() if workers is None else max(0, int(workers))
    coordinator = Coordinator(
        campaign, expected_workers=max(1, workers), **engine
    )
    wall_seconds = coordinator.run(workers, timeout)
    counters = coordinator.telemetry.counters
    return CampaignReport(
        name=campaign.spec.name,
        directory=campaign.directory,
        total=len(campaign.labels),
        completed=sum(key in coordinator.payloads for key in campaign.keys),
        failed=[
            dict(coordinator.failed[key], label=label)
            for label, key in campaign.key_for_label.items()
            if key in coordinator.failed
        ],
        resumed=coordinator.resumed,
        cache_hits=counters["runs.cache_hits"],
        store_hits=counters["runs.store_hits"],
        executed=coordinator.accepted_results,
        retries=counters["retries.total"],
        digest=coordinator.digest,
        workers=max(workers, len(coordinator.workers)),
        shards=coordinator.num_shards,
        stolen=sum(stats.stolen for stats in coordinator.shard_stats),
        wall_seconds=wall_seconds,
        summary=coordinator.summary,
        telemetry=coordinator.telemetry.snapshot(),
    )


__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Campaign",
    "CampaignError",
    "CampaignReport",
    "CampaignResultSource",
    "CampaignSpec",
    "CampaignStatus",
    "RetryPolicy",
    "run_campaign",
]
