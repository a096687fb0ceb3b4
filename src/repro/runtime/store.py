"""Content-addressed on-disk result store.

Results live as one canonical-JSON file per job under the store root,
named ``<first two key hex chars>/<key>.json`` (sharded so huge sweeps do
not create million-entry directories).  Because filenames are content
hashes, a store can be shared by unrelated sweeps, resumed after an
interrupted run, or copied between machines; writers use write-to-temp +
atomic rename (:func:`atomic_write`) so a crashed worker never leaves a torn
entry behind.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .. import telemetry

#: Bump when the result row schema changes; part of every job key so stale
#: cache entries from older schema versions are never reused.
#: v2: Monte-Carlo fidelity columns + fidelity options in the job key.
#: v3: pass-manager compile options (opt_level/pipeline/routing_seed) in the
#: job key, opt_level column, per-pass compile trace stored with each result.
#: v4: jobs are keyed on the full backend description (topology + config +
#: controller + calibration) instead of a bare DigiQConfig; rows carry the
#: backend name.
#: v5: circuit-level jobs — arbitrary user circuits (submitted through
#: ``repro.primitives``) share the keyspace with benchmark jobs; specs of
#: user-circuit jobs record the circuit fingerprint and worker payloads may
#: carry a serialized gate stream instead of a generator name.
RESULT_SCHEMA_VERSION = 5

#: Default store location, relative to the current working directory.
DEFAULT_STORE_DIR = ".repro_cache/sweeps"

logger = logging.getLogger(__name__)


def canonical_json(data: Dict[str, object]) -> str:
    """The canonical serialized form: sorted keys, minimal separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def atomic_write(path: Path, text: str) -> Path:
    """Replace ``path`` with ``text`` through a temp file and an atomic rename.

    Readers see the old file or the new one, never a torn one; the temp file
    (``*.tmp`` beside ``path``) is removed when the write or rename fails.
    """
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            tmp.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _mislabeled(entry: object, key: str) -> bool:
    """Whether a parsed entry names another job key or result schema."""
    if not isinstance(entry, dict) or "key" not in entry:
        return False
    schema = entry.get("schema", RESULT_SCHEMA_VERSION)
    return entry["key"] != key or schema != RESULT_SCHEMA_VERSION


class ResultStore:
    """A directory of content-addressed job results."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else Path(DEFAULT_STORE_DIR)
        self._corrupt_seen = 0
        self._warned_corrupt = False
        self._warned_mismatch = False

    # -- addressing -----------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """On-disk path of one job key."""
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed job key '{key}'")
        return self.root / key[:2] / f"{key}.json"

    # -- reads ----------------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored result dict for a key, or None on a cache miss.

        Torn/corrupt JSON entries read as misses (the dispatcher recomputes
        and atomically replaces them) but are *not* silent: each one bumps
        the ``store.corrupt`` counter and the instance's ``stats()['corrupt']``
        count, and the first one per store instance logs a warning naming
        the offending path.

        An entry whose stored ``key`` names another job, or whose ``schema``
        is not :data:`RESULT_SCHEMA_VERSION`, was copied or left under the
        wrong name: it reads as a miss too, bumps ``store.mismatch`` and is
        warned about once per instance.  Entries without a ``key`` field are
        served as stored.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                result = json.load(handle)
        except FileNotFoundError:
            telemetry.counter("store.miss").inc()
            return None
        except json.JSONDecodeError:
            self._corrupt_seen += 1
            telemetry.counter("store.corrupt").inc()
            telemetry.counter("store.miss").inc()
            if not self._warned_corrupt:
                self._warned_corrupt = True
                logger.warning(
                    "result store %s holds a torn/corrupt entry at %s; treating "
                    "as a cache miss (it will be recomputed and replaced; "
                    "further corrupt entries in this store are counted "
                    "silently — see stats()['corrupt'])",
                    self.root,
                    path,
                )
            return None
        if _mislabeled(result, key):
            telemetry.counter("store.mismatch").inc()
            telemetry.counter("store.miss").inc()
            if not self._warned_mismatch:
                self._warned_mismatch = True
                logger.warning(
                    "result store %s holds an entry at %s labelled key=%s schema=%s; "
                    "treating as a cache miss (further mislabeled entries in this "
                    "store are counted silently as store.mismatch)",
                    self.root,
                    path,
                    result.get("key"),
                    result.get("schema"),
                )
            return None
        telemetry.counter("store.hit").inc()
        return result

    def __contains__(self, key: str) -> bool:
        # Delegates to get() so a torn/corrupt entry reads as absent, exactly
        # as it does for every other read path.
        return self.get(key) is not None

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` — a presence probe only.

        Unlike ``key in store`` this neither opens nor parses the entry and
        records no ``store.hit``/``store.miss``, so a poller may call it as
        often as it likes without skewing the store's accounting.  A torn
        entry still reads as present here; confirm with :meth:`get` before
        relying on the contents.
        """
        return self.path_for(key).is_file()

    def keys(self) -> List[str]:
        """All stored job keys (sorted)."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    # -- accounting -----------------------------------------------------------------

    def _entry_paths(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def stats(self) -> Dict[str, object]:
        """Store accounting: entry count, total bytes, schema-version histogram.

        The histogram groups entries by the ``schema`` field of their stored
        payload (``None`` for unreadable/torn entries), which is how mixed
        stores left behind by version bumps are spotted before pruning.
        ``corrupt`` counts the torn/corrupt entries *this instance's*
        ``get()`` calls have swallowed as misses so far.
        """
        entries = 0
        total_bytes = 0
        schema_versions: Dict[object, int] = {}
        for path in self._entry_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entries += 1
            total_bytes += size
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    stored = json.load(handle)
            except (OSError, json.JSONDecodeError):
                # The scan reads directly (not via get()) so inventorying a
                # store never skews its hit/miss/corrupt accounting.
                stored = None
            schema = None if stored is None else stored.get("schema")
            label = "unreadable" if schema is None else str(schema)
            schema_versions[label] = schema_versions.get(label, 0) + 1
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total_bytes,
            "corrupt": self._corrupt_seen,
            "schema_versions": dict(sorted(schema_versions.items())),
        }

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        keep: Optional[Iterable[str]] = None,
    ) -> List[str]:
        """Evict oldest entries until both limits hold; returns removed keys.

        Age is the entry file's modification time (ties broken by key, so a
        prune is deterministic for a given on-disk state).  ``None`` leaves
        a limit unenforced; calling with neither limit is a no-op.  Limits
        must be non-negative — ``max_entries=0`` empties the store.

        ``keep`` names keys that must survive the prune no matter their age
        — the queue CLI passes the active (queued/running) jobs' result
        keys, so pruning a store a live daemon is executing into can never
        evict an entry a job is about to read or write.  Protected entries
        still count toward the limits, so a prune may end above its limits
        when everything old is protected.
        """
        for name, limit in (("max_entries", max_entries), ("max_bytes", max_bytes)):
            if limit is not None and limit < 0:
                raise ValueError(f"{name} must be >= 0, got {limit}")
        if max_entries is None and max_bytes is None:
            return []
        protected = frozenset(keep or ())
        aged = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            aged.append((stat.st_mtime, path.stem, stat.st_size))
        aged.sort()
        entries = len(aged)
        total_bytes = sum(size for _, _, size in aged)
        removed: List[str] = []
        for _, key, size in aged:
            over_entries = max_entries is not None and entries > max_entries
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            if not over_entries and not over_bytes:
                break
            if key in protected:
                continue
            if self.discard(key):
                removed.append(key)
            entries -= 1
            total_bytes -= size
        return removed

    # -- writes ---------------------------------------------------------------------

    def put(self, key: str, result: Dict[str, object]) -> Path:
        """Atomically persist one result dict under its key."""
        telemetry.counter("store.put").inc()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write(path, canonical_json(result))

    def discard(self, key: str) -> bool:
        """Remove one entry; returns whether it existed."""
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for key in self.keys():
            removed += self.discard(key)
        return removed
