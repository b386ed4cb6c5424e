"""Per-replica session prefix/KV cache: byte capacity, LRU eviction.

A replica that served a session turn can keep the turn's final KV
context around; the session's next turn then reuses the resident prefix
and only prefills its fresh suffix — the prompt-pass discount that makes
session-affinity routing pay. The cache is a deliberately simple model:

* One entry per session, holding the session's latest *context length*
  in tokens (the KV bytes are ``tokens * bytes_per_token``). A new turn
  of a resident session replaces the entry (the KV grows in place).
* Capacity is in bytes; inserting past capacity evicts least-recently-
  used sessions until the new entry fits. An entry larger than the
  whole cache is not admitted (counted as a failed insert, not an
  eviction storm).
* ``lookup`` is the serving-path read: it counts a hit or miss, renews
  the entry's recency, and returns the resident prefix length. ``peek``
  is the routing-path read: same answer, no counter or recency
  mutation — probing candidate replicas must not perturb LRU state.

Determinism: both simulation cores drive the cache through the
same call sites in the same event order, so hit/miss/eviction sequences
are bit-identical across cores.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.errors import ConfigurationError


class PrefixCache:
    """LRU prefix cache over sessions with a byte-capacity bound.

    Attributes:
        capacity_tokens: Capacity expressed in whole context tokens
            (``capacity_bytes // bytes_per_token``).
        hits: Lookups that found a resident prefix.
        misses: Lookups that found none.
        evictions: Entries evicted to make room.
        cached_tokens: Prefix tokens served from cache across all hits —
            prompt tokens the replica never had to prefill.
    """

    def __init__(self, capacity_tokens: int) -> None:
        if capacity_tokens < 1:
            raise ConfigurationError(
                "prefix cache capacity must hold at least one token"
            )
        self.capacity_tokens = capacity_tokens
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self._resident_tokens = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cached_tokens = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_tokens(self) -> int:
        """Context tokens currently resident across all sessions."""
        return self._resident_tokens

    def peek(self, session_id: int, prefix_len: int) -> int:
        """Resident prefix length for a turn, without touching state.

        The routing-time probe: returns ``min(resident context,
        prefix_len)`` — the turn can reuse at most its own prefix — and
        0 when the session is absent. No counters move and LRU order is
        unchanged, so pricing any number of candidates is side-effect
        free.
        """
        resident = self._entries.get(session_id)
        if resident is None:
            return 0
        return resident if resident < prefix_len else prefix_len

    def lookup(self, session_id: int, prefix_len: int) -> int:
        """Serving-path read: count hit/miss, renew recency, return the
        resident prefix length (0 on a miss)."""
        resident = self._entries.get(session_id)
        if resident is None or prefix_len <= 0:
            self.misses += 1
            return 0
        self._entries.move_to_end(session_id)
        self.hits += 1
        cached = resident if resident < prefix_len else prefix_len
        self.cached_tokens += cached
        return cached

    def insert(self, session_id: int, context_tokens: int) -> None:
        """Make ``session_id``'s latest context resident.

        Replaces any previous entry for the session (the KV grows in
        place), then evicts LRU sessions until the cache fits. A
        context larger than the whole capacity is dropped — the replica
        cannot retain it.
        """
        if context_tokens <= 0:
            raise ConfigurationError("context_tokens must be positive")
        previous = self._entries.pop(session_id, None)
        if previous is not None:
            self._resident_tokens -= previous
        if context_tokens > self.capacity_tokens:
            return
        while (
            self._resident_tokens + context_tokens > self.capacity_tokens
            and self._entries
        ):
            _, evicted = self._entries.popitem(last=False)
            self._resident_tokens -= evicted
            self.evictions += 1
        self._entries[session_id] = context_tokens
        self._resident_tokens += context_tokens

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for reporting (merged across replicas)."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "cached_tokens": self.cached_tokens,
            "hit_rate": self.hits / total if total else 0.0,
        }
