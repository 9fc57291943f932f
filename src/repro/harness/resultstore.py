"""Content-addressed, multi-tenant result store.

The PR-1 executor cache memoizes one flat directory of
``<run_key>.json`` files, where the run key is already a sha256 over the
canonical request (:func:`repro.harness.executor.run_key`). This module
generalizes that idiom into a store that many tenants, campaigns, and
worker fleets can share safely:

* **objects/** — the content-addressed plane: one canonical payload per
  run key, fanned out by the first two hex digits
  (``objects/ab/abcdef....json``) so a million-entry store never puts a
  million files in one directory. Writes are atomic
  (:func:`~repro.harness.ioutils.atomic_write_json`) and idempotent —
  two workers racing to store the same key both win, bit-identically,
  because payloads are a pure function of the key.
* **tenants/** — the naming plane: per-tenant, per-campaign manifests
  mapping labels to run keys. Tenants never duplicate payload bytes;
  a second tenant submitting an already-computed matrix completes
  entirely from the objects plane (the coordinator counts these as
  ``store-hit`` completions and never leases them to a worker).

The store is also executor-compatible: handing ``store=`` to
:class:`~repro.harness.executor.Executor` routes its memo-cache reads and
writes through the objects plane, so interactive figure runs, campaigns,
and distributed fleets all dedupe against the same pool.

Corruption discipline matches the rest of the harness: unreadable objects
are quarantined (``*.corrupt.<pid>``) and recomputed, never trusted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.harness.ioutils import (
    atomic_write_json,
    iter_stale_tmp,
    quarantine,
)

#: Bump on any change to the on-disk layout or manifest shape.
STORE_SCHEMA_VERSION = 1

OBJECTS_DIR = "objects"
TENANTS_DIR = "tenants"
DEFAULT_TENANT = "default"

_KEY_HEX = set("0123456789abcdef")


def _valid_key(key: str) -> bool:
    return len(key) == 64 and set(key) <= _KEY_HEX


class ResultStoreError(RuntimeError):
    """Raised for malformed keys and unusable store directories."""


class ResultStore:
    """One store rooted at ``root`` (the CLI's ``--store`` directory)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: Monotonic session counters (mirrored into bench telemetry).
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "put_dedup": 0,
            "quarantined": 0,
        }

    # ---------------------------------------------------------- object plane

    def object_path(self, key: str) -> Path:
        if not _valid_key(key):
            raise ResultStoreError(f"{key!r} is not a sha256 run key")
        return self.root / OBJECTS_DIR / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        return self.object_path(key).exists()

    def get(self, key: str) -> Optional[Dict]:
        """Fetch one canonical payload; ``None`` on miss.

        A corrupt object is quarantined and reported as a miss, so a torn
        pre-hardening write can never poison a campaign.
        """
        path = self.object_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.stats["misses"] += 1
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("store objects must be JSON objects")
        except ValueError:
            quarantine(path)
            self.stats["quarantined"] += 1
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return payload

    def put(self, key: str, payload: Dict) -> bool:
        """Store one payload; returns ``True`` if the object was new.

        Existing objects are left untouched (content-addressed: same key
        implies same bytes), which keeps concurrent writers cheap — the
        common distributed case is N workers completing one shared key.
        """
        path = self.object_path(key)
        if path.exists():
            self.stats["put_dedup"] += 1
            return False
        atomic_write_json(path, payload)
        self.stats["puts"] += 1
        return True

    def keys(self) -> Iterator[str]:
        objects = self.root / OBJECTS_DIR
        if not objects.is_dir():
            return
        for bucket in sorted(objects.iterdir()):
            if not bucket.is_dir():
                continue
            for entry in sorted(bucket.glob("*.json")):
                stem = entry.name[: -len(".json")]
                if _valid_key(stem):
                    yield stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ---------------------------------------------------------- tenant plane

    def _manifest_path(self, tenant: str, campaign: str) -> Path:
        for part in (tenant, campaign):
            if not part or "/" in part or part.startswith("."):
                raise ResultStoreError(
                    f"invalid tenant/campaign name {part!r}"
                )
        return self.root / TENANTS_DIR / tenant / f"{campaign}.json"

    def publish(
        self,
        tenant: str,
        campaign: str,
        keys_by_label: Dict[str, str],
        digest: str = "",
    ) -> Path:
        """Write (atomically, idempotently) one campaign manifest."""
        path = self._manifest_path(tenant, campaign)
        atomic_write_json(
            path,
            {
                "schema": STORE_SCHEMA_VERSION,
                "tenant": tenant,
                "campaign": campaign,
                "digest": digest,
                "keys": dict(sorted(keys_by_label.items())),
            },
        )
        return path

    def manifest(self, tenant: str, campaign: str) -> Optional[Dict]:
        path = self._manifest_path(tenant, campaign)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            return None
        except ValueError:
            quarantine(path)
            self.stats["quarantined"] += 1
            return None
        return payload if isinstance(payload, dict) else None

    def tenants(self) -> List[str]:
        tenants = self.root / TENANTS_DIR
        if not tenants.is_dir():
            return []
        return sorted(p.name for p in tenants.iterdir() if p.is_dir())

    def campaigns(self, tenant: str) -> List[str]:
        base = self.root / TENANTS_DIR / tenant
        if not base.is_dir():
            return []
        return sorted(p.name[: -len(".json")] for p in base.glob("*.json"))

    def referenced_keys(self) -> set:
        """Every key any tenant manifest still points at."""
        keys = set()
        for tenant in self.tenants():
            for campaign in self.campaigns(tenant):
                manifest = self.manifest(tenant, campaign)
                if manifest:
                    keys.update(manifest.get("keys", {}).values())
        return keys

    # ------------------------------------------------------------ lifecycle

    def gc(self, keep: Optional[set] = None) -> int:
        """Delete unreferenced objects (plus tmp/quarantine debris).

        ``keep`` defaults to :meth:`referenced_keys`; returns the number
        of files removed.
        """
        keep = self.referenced_keys() if keep is None else set(keep)
        removed = 0
        for key in list(self.keys()):
            if key in keep:
                continue
            try:
                self.object_path(key).unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
        for debris in list(iter_stale_tmp(self.root)):
            try:
                debris.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
        for corrupt in list(self.root.rglob("*.corrupt.*")):
            try:
                corrupt.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
        return removed

    def describe(self) -> Dict:
        return {
            "schema": STORE_SCHEMA_VERSION,
            "root": str(self.root),
            "objects": len(self),
            "tenants": {
                tenant: self.campaigns(tenant) for tenant in self.tenants()
            },
            "stats": dict(self.stats),
        }


__all__ = [
    "DEFAULT_TENANT",
    "OBJECTS_DIR",
    "STORE_SCHEMA_VERSION",
    "TENANTS_DIR",
    "ResultStore",
    "ResultStoreError",
]
