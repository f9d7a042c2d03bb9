"""A sized in-memory result tier over the serve disk cache.

The engine's own caches (in-process memo + pickled explorations on
disk) key *engine artifacts*; the serving layer additionally caches the
finished **result documents** it returns to clients, so a repeat
request costs one dictionary lookup — no worker dispatch, no engine
re-entry, no disk read.

:class:`HotTier` is an LRU bounded by entries *and* bytes (result
documents vary from a few hundred bytes to tens of KB of rendered
counterexample), with hit/miss/eviction counters mirrored into the
``obs`` metrics registry when it is enabled.  Below it sits a small
JSON-per-key disk layer under ``<cache_dir>/serve``.  It is on exactly
when the engine cache is (``REPRO_EXPLORE_CACHE``, ``--no-cache``), so
a ``--no-cache`` run never observes results persisted by earlier runs,
and it goes through the engine cache's own atomic write-and-replace
store and delete-on-corrupt load (:func:`repro.memory.cache.disk_write`
/ :func:`repro.memory.cache.disk_read`).
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.memory.cache import (
    cache_dir,
    cache_enabled,
    disk_read,
    disk_write,
)
from repro.obs import metrics

#: The hot tier's caps: entries, and bytes of serialized documents.
HOT_ENTRIES = 1024
HOT_BYTES = 64 * 1024 * 1024


def serve_disk_dir() -> str:
    """The serve result layer's directory (under the engine cache dir)."""
    return os.path.join(cache_dir(), "serve")


def disk_load(key: str) -> Optional[Dict[str, Any]]:
    """Load one result document, deleting anything unreadable."""
    if not cache_enabled():
        return None
    return disk_read(
        os.path.join(serve_disk_dir(), key + ".json"), json.loads, dict
    )


def _json_dumps(doc: Dict[str, Any]) -> bytes:
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def disk_store(key: str, doc: Dict[str, Any]) -> None:
    """Atomically persist one result document."""
    if not cache_enabled():
        return
    disk_write(
        os.path.join(serve_disk_dir(), key + ".json"), doc, _json_dumps
    )


class HotTier:
    """Byte- and entry-bounded LRU of finished result documents.

    ``max_entries <= 0`` or ``max_bytes <= 0`` disables the tier (every
    ``get`` misses, ``put`` is a no-op) — the configuration the warm-
    worker tests use to force repeat jobs through the pool.
    """

    def __init__(self, max_entries: int = HOT_ENTRIES,
                 max_bytes: int = HOT_BYTES) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0 and self.max_bytes > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Look up a result, refreshing its recency on a hit."""
        doc = self._entries.get(key) if self.enabled else None
        if doc is None:
            self.misses += 1
            if metrics.ENABLED:
                metrics.REGISTRY.counter("serve.hot.misses").inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if metrics.ENABLED:
            metrics.REGISTRY.counter("serve.hot.hits").inc()
        return doc

    def put(self, key: str, doc: Dict[str, Any]) -> None:
        """Insert a result, evicting least-recently-used entries to fit.

        A document bigger than the whole byte budget is simply not
        admitted (evicting the entire tier for one giant counterexample
        would be a worse trade than recomputing it).
        """
        if not self.enabled:
            return
        size = len(json.dumps(doc, sort_keys=True).encode())
        if size > self.max_bytes:
            return
        if key in self._entries:
            self.bytes -= self._sizes[key]
            del self._entries[key]
        self._entries[key] = doc
        self._sizes[key] = size
        self.bytes += size
        while (len(self._entries) > self.max_entries
               or self.bytes > self.max_bytes):
            old_key, _ = self._entries.popitem(last=False)
            self.bytes -= self._sizes.pop(old_key)
            self.evictions += 1
            if metrics.ENABLED:
                metrics.REGISTRY.counter("serve.hot.evictions").inc()
        if metrics.ENABLED:
            metrics.REGISTRY.gauge("serve.hot.bytes").set(self.bytes)
            metrics.REGISTRY.gauge("serve.hot.entries").set(
                len(self._entries)
            )

    def stats(self) -> Dict[str, Any]:
        """JSON-ready counters for ``/v1/stats``."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }
