"""LRU cache of priced decoding steps (the serving hot path).

Design-space sweeps and long serving runs price *identical* steps
thousands of times — same system, same (RLP, TLP), same (bucketed)
context — so a small LRU in front of the cost model removes most of that
work. (A miss on a serial system is already cheap: the serving pricer
memoizes each step's context-free half and prices one attention kernel;
see :class:`~repro.serving.engine.StepPricer`.)

Keys are ``(model_name, context_mode, fc_target, rlp, tlp,
context_key)`` scoped per system instance: :class:`~repro.systems.base.IterationResult` is frozen,
so a cached result can be shared safely, but prices are only valid for
the exact system that produced them (device inventory, link, pipeline
depth) and the model whose kernels were priced — a system instance may
serve several models over its lifetime.
Systems are held via weak references so a cache shared across a sweep does
not keep dead configurations alive. The planned FC target is part of the
key, which keeps the cache exact for PAPI: a placement flip at the same
(RLP, TLP) — PAPI's standing decision lags a TLP register write until the
scheduler re-evaluates — misses instead of returning a stale price.

The context key is no finer than the price reads. In mean mode it is the
bucketed mean context. In per-request mode it is the bucketed context
total on a serial system, whose attention cost is linear in each
request's context, so every multiset with one total shares an entry; on
a pipelined system (``pipeline_chunks > 1`` and ``rlp >=
pipeline_chunks``) it is the sorted tuple of bucketed contexts, because
chunking prices each request's context in its own sub-batch. The context
mode is part of the key because a mean and a total are both integers.

Context bucketing is the engine's job (see ``ServingEngine.context_bucket``);
with bucket size 1 the cache is bit-exact with the uncached path.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.systems.base import IterationResult, ServingSystem

#: A fully resolved step-price key:
#: (model_name, context_mode, fc_target, rlp, tlp, context_key).
StepKey = Tuple[str, str, Hashable, int, int, Hashable]


def _prices_alike(rep, system) -> bool:
    """Whether ``system`` may share ``rep``'s scope: ``prices_like`` for
    serving systems, type and equality for any other scope object."""
    if isinstance(rep, ServingSystem):
        return rep.prices_like(system)
    return type(rep) is type(system) and rep == system


class SystemScopedCache:
    """Bounded LRU of values, scoped per system instance.

    The shared mechanics behind :class:`StepCostCache` (priced decoding
    steps) and the router's admission-price memo
    (:class:`~repro.cluster.router.PriceCache`): one cache instance can
    front any number of systems (e.g. every replica of a cluster, or
    every point of a design-space sweep); entries never leak across
    systems because the outer map is keyed by system identity.

    With ``share_equal_systems=True`` the scope is the system's
    *configuration* rather than its identity: systems that price alike
    (:meth:`~repro.systems.base.ServingSystem.prices_like`: dataclass
    ``__eq__`` over devices, links, and thresholds, plus the pipelining
    depth) share one entry map. A fleet of 32 identical replicas then
    prices each distinct operating point once for the whole fleet
    instead of once per replica — safe because every cached value is a
    pure function of the system configuration and the key (the planned
    FC placement is part of the key, so divergent scheduler state
    between replicas can never alias).
    Sharing snapshots equality when a system first touches the cache;
    callers that mutate a system's configuration afterwards (e.g.
    ``calibrate``) must use a fresh cache.

    Attributes:
        max_entries: Per-scope entry cap; least-recently-used entries are
            evicted beyond it.
        hits: Lookups served from the cache.
        misses: Lookups that fell through to the cost model.
    """

    def __init__(
        self, max_entries: int = 4096, share_equal_systems: bool = False
    ) -> None:
        if max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self.max_entries = max_entries
        self.share_equal_systems = share_equal_systems
        self.hits = 0
        self.misses = 0
        # Keyed by scope id (see scope_key): dataclass systems define
        # __eq__ without __hash__, so they cannot key a WeakKeyDictionary
        # directly. A finalizer purges a system's entries when it is
        # collected, which both bounds memory and prevents a recycled id
        # from ever reading another system's values.
        self._per_system: Dict[int, OrderedDict] = {}
        # Identity -> scope resolution for shared scopes. Scope ids come
        # from a monotone counter — never from id() — so a recycled
        # address can never alias a dead system's scope. _scope_by_id is
        # invalidated per system by a finalizer; _scope_reps holds one
        # weakly referenced representative system per scope for the
        # equality probes of systems seen later; _scope_refs counts a
        # scope's live systems so its entries are purged when the last
        # one is collected.
        self._scope_by_id: Dict[int, int] = {}
        self._scope_reps: list = []
        self._scope_refs: Dict[int, int] = {}
        self._next_scope = -1

    def scope_key(self, system: ServingSystem) -> int:
        """The scope ``system``'s entries live under.

        Identity (``id``) normally; with ``share_equal_systems``, a
        counter-allocated scope shared by every system that compares
        equal to its first-seen representative.
        """
        if not self.share_equal_systems:
            return id(system)
        system_id = id(system)
        scope = self._scope_by_id.get(system_id)
        if scope is not None:
            return scope
        live = []
        for ref, rep_scope in self._scope_reps:
            rep = ref()
            if rep is None:
                continue  # prune dead representatives as a side effect
            live.append((ref, rep_scope))
            if scope is None and _prices_alike(rep, system):
                scope = rep_scope
        self._scope_reps = live
        if scope is None:
            # Counter-allocated (negative, so it can never collide with
            # an id()-keyed entry if a cache is somehow used both ways).
            scope = self._next_scope
            self._next_scope -= 1
            self._scope_reps.append((weakref.ref(system), scope))
        self._scope_by_id[system_id] = scope
        self._scope_refs[scope] = self._scope_refs.get(scope, 0) + 1
        weakref.finalize(system, self._release_scope, system_id, scope)
        return scope

    def _release_scope(self, system_id: int, scope: int) -> None:
        """Finalizer: drop a dead system's identity memo; purge the whole
        scope (entries and representative) when no live system holds it."""
        self._scope_by_id.pop(system_id, None)
        remaining = self._scope_refs.get(scope, 0) - 1
        if remaining > 0:
            self._scope_refs[scope] = remaining
        else:
            self._scope_refs.pop(scope, None)
            self._per_system.pop(scope, None)
            self._scope_reps = [
                (ref, rep_scope)
                for ref, rep_scope in self._scope_reps
                if rep_scope != scope
            ]

    def _entries(self, system: ServingSystem, create: bool) -> Optional[OrderedDict]:
        scope = self.scope_key(system)
        entries = self._per_system.get(scope)
        if entries is None and create:
            entries = OrderedDict()
            self._per_system[scope] = entries
            if not self.share_equal_systems:
                weakref.finalize(system, self._per_system.pop, scope, None)
        return entries

    def scope_entries(self, system: ServingSystem) -> OrderedDict:
        """The system's entry map, created if absent.

        Hoists the scope resolution (identity memo or equality probe) out
        of a hot loop: callers that price many steps for one system grab
        the map once and use :meth:`get_in` / :meth:`put_in` per lookup.
        The map stays valid as long as the caller holds the system alive.
        """
        return self._entries(system, create=True)

    def get_in(self, entries: OrderedDict, key: Hashable) -> Optional[object]:
        """:meth:`get` against a pre-resolved entry map."""
        result = entries.get(key)
        if result is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return result

    def put_in(self, entries: OrderedDict, key: Hashable, value: object) -> None:
        """:meth:`put` against a pre-resolved entry map."""
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.max_entries:
            entries.popitem(last=False)

    def get(self, system: ServingSystem, key: Hashable) -> Optional[object]:
        """Cached value of ``key`` on ``system``, or ``None`` on a miss."""
        entries = self._entries(system, create=False)
        result = entries.get(key) if entries is not None else None
        if result is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return result

    def put(self, system: ServingSystem, key: Hashable, value: object) -> None:
        """Store one value, evicting the LRU entry if at capacity."""
        entries = self._entries(system, create=True)
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.max_entries:
            entries.popitem(last=False)

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    @property
    def entries(self) -> int:
        """Resident entries across all systems."""
        return sum(len(entries) for entries in self._per_system.values())

    def stats(self) -> Dict[str, float]:
        """Counters for reporting (hits, misses, hit rate, residency)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "systems": len(self._per_system),
            "entries": self.entries,
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        """Drop every entry (and scope memos) and reset the counters."""
        self._per_system.clear()
        self._scope_by_id.clear()
        self._scope_reps.clear()
        self._scope_refs.clear()
        self.hits = 0
        self.misses = 0


class StepCostCache(SystemScopedCache):
    """Bounded LRU of :class:`IterationResult` values, scoped per system.

    :class:`IterationResult` is frozen, so a cached result can be shared
    safely; see the module docstring for the key discipline and the
    :class:`SystemScopedCache` base for the shared LRU mechanics.
    """
