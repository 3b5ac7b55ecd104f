"""Encoder/decoder byte caches.

Two cooperating structures, as in Spring & Wetherall:

* :class:`PacketStore` — the payload cache: recently seen packet
  payloads, evicted FIFO under a byte budget (and optionally a packet
  budget, which is how Table I's "window of k packets" is expressed).
* :class:`FingerprintTable` — fingerprint -> newest packet containing
  it.  §III-B: entries are *replaced* when a newer packet contains the
  same fingerprint, and the byte offset of the fingerprint inside the
  payload is stored alongside so match expansion starts instantly.

Entries whose packet has been evicted from the store are invalidated
lazily on lookup.

:class:`ByteCache` combines the two and is the one cache every gateway
holds, whether it carries a single transfer or a whole population's
overlapping flows (the serving mode shares one per direction).
"""

from __future__ import annotations

import itertools
import zlib
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .polyhash import AnchorSet
from .ringtable import RingEntry, RingFingerprintTable


class CacheEntry:
    """One fingerprint-table entry.

    One entry is created per anchor per cached packet — millions per
    sweep — so this is a hand-slotted class rather than a dataclass
    (``dataclass(slots=True)`` needs Python >= 3.10).
    """

    __slots__ = ("fingerprint", "store_id", "offset", "tcp_seq", "flow",
                 "packet_counter", "usable")

    def __init__(self, fingerprint: int, store_id: int, offset: int,
                 tcp_seq: Optional[int] = None,
                 flow: Optional[tuple] = None,
                 packet_counter: int = 0,
                 usable: bool = True) -> None:
        self.fingerprint = fingerprint
        self.store_id = store_id          # key into the PacketStore
        self.offset = offset              # fingerprint window offset in payload
        self.tcp_seq = tcp_seq            # §V-B: seq of the cached segment
        self.flow = flow                  # flow identity of the cached segment
        self.packet_counter = packet_counter  # §V-C: monotone packet index
        self.usable = usable              # informed marking can veto an entry

    def __repr__(self) -> str:
        return (f"CacheEntry(fingerprint={self.fingerprint}, "
                f"store_id={self.store_id}, offset={self.offset}, "
                f"tcp_seq={self.tcp_seq}, flow={self.flow}, "
                f"packet_counter={self.packet_counter}, usable={self.usable})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheEntry):
            return NotImplemented
        return (self.fingerprint == other.fingerprint
                and self.store_id == other.store_id
                and self.offset == other.offset
                and self.tcp_seq == other.tcp_seq
                and self.flow == other.flow
                and self.packet_counter == other.packet_counter
                and self.usable == other.usable)


class PacketStore:
    """Byte-budgeted store of packet payloads.

    Eviction is FIFO by default (Spring & Wetherall's choice — the
    cache is a sliding window over the stream).  ``eviction="lru"``
    keeps hot payloads alive instead; the difference is measured by
    ``benchmarks/bench_cache_policy.py``.
    """

    def __init__(self, byte_budget: int = 4 * 1024 * 1024,
                 max_packets: Optional[int] = None,
                 eviction: str = "fifo") -> None:
        if byte_budget <= 0:
            raise ValueError("byte_budget must be positive")
        if max_packets is not None and max_packets <= 0:
            raise ValueError("max_packets must be positive")
        if eviction not in ("fifo", "lru"):
            raise ValueError(f"unknown eviction policy: {eviction!r}")
        self.byte_budget = byte_budget
        self.max_packets = max_packets
        self.eviction = eviction
        self._lru = eviction == "lru"
        self._data: "OrderedDict[int, bytes]" = OrderedDict()
        self._bytes = 0
        self._ids = itertools.count(1)
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def add(self, payload: bytes) -> int:
        """Store a payload; returns its store id.  May evict old entries."""
        store_id = next(self._ids)
        self._data[store_id] = payload
        self._bytes += len(payload)
        self._evict()
        return store_id

    def get(self, store_id: int) -> Optional[bytes]:
        payload = self._data.get(store_id)
        if payload is not None and self._lru:
            self._data.move_to_end(store_id)
        return payload

    def view(self, store_id: int) -> Optional[memoryview]:
        """Zero-copy view of a stored payload.

        Region reads during decoding splice slices of stored payloads
        into the reconstruction buffer; serving them as memoryviews
        avoids one intermediate ``bytes`` copy per region.  (Views are
        *not* used for byte comparisons — ``memoryview.__eq__`` is
        slower than the C fast path of ``bytes.__eq__``; see DESIGN.md
        §13.)
        """
        payload = self._data.get(store_id)
        if payload is None:
            return None
        if self._lru:
            self._data.move_to_end(store_id)
        return memoryview(payload)

    def __contains__(self, store_id: int) -> bool:
        return store_id in self._data

    def clear(self) -> None:
        self._data.clear()
        self._bytes = 0

    def set_byte_budget(self, byte_budget: int) -> int:
        """Re-cap the store, evicting immediately down to the new budget.

        Returns how many payloads the re-cap evicted — the "eviction
        storm" a memory-pressure fault measures.  Raising the budget
        back later evicts nothing and brings nothing back.
        """
        if byte_budget <= 0:
            raise ValueError("byte_budget must be positive")
        before = self.evictions
        self.byte_budget = byte_budget
        self._evict()
        return self.evictions - before

    def evict_oldest(self, count: int) -> int:
        """Force out up to ``count`` oldest payloads; returns how many.

        Used by the asymmetric-eviction fault action: evicting from one
        gateway's store only reproduces a cache divergence no per-packet
        policy can repair (the resilience layer's watchdog can).
        """
        evicted = 0
        while self._data and evicted < count:
            _, payload = self._data.popitem(last=False)
            self._bytes -= len(payload)
            self.evictions += 1
            evicted += 1
        return evicted

    def ids(self) -> Iterator[int]:
        return iter(self._data.keys())

    def _evict(self) -> None:
        while self._bytes > self.byte_budget or (
                self.max_packets is not None and len(self._data) > self.max_packets):
            _, payload = self._data.popitem(last=False)
            self._bytes -= len(payload)
            self.evictions += 1


class FingerprintTable:
    """fingerprint -> :class:`CacheEntry`, newest-wins."""

    def __init__(self) -> None:
        self._table: Dict[int, CacheEntry] = {}
        self.inserts = 0
        self.replacements = 0

    def __len__(self) -> int:
        return len(self._table)

    def put(self, entry: CacheEntry) -> None:
        """Insert or replace the entry for ``entry.fingerprint``."""
        if entry.fingerprint in self._table:
            self.replacements += 1
        self.inserts += 1
        self._table[entry.fingerprint] = entry

    def get(self, fingerprint: int) -> Optional[CacheEntry]:
        return self._table.get(fingerprint)

    def remove(self, fingerprint: int) -> None:
        self._table.pop(fingerprint, None)

    def clear(self) -> None:
        self._table.clear()

    def entries(self) -> Iterator[CacheEntry]:
        return iter(self._table.values())


#: Either table's entry type; both expose the same attribute set.
TableEntry = Union[CacheEntry, RingEntry]


class ByteCache:
    """The combined cache used by an encoder or decoder gateway.

    ``table_kind`` selects the fingerprint-table implementation:
    ``"ring"`` (the default) is the batched numpy ring buffer of
    :mod:`repro.core.ringtable`; ``"dict"`` is the per-entry dict of
    :class:`FingerprintTable`, kept only as the ring table's reference
    oracle (the property tests and the differential runner hold the two
    to byte-identical encoder output); no production path selects it.

    ``admission < 1.0`` arms a content-keyed admission coin that skips
    caching a payload entirely.  It is keyed on a CRC of the payload
    bytes, never on call order, so an encoder and decoder make
    identical decisions regardless of loss or reordering between them.
    """

    def __init__(self, byte_budget: int = 4 * 1024 * 1024,
                 max_packets: Optional[int] = None,
                 eviction: str = "fifo",
                 table_kind: str = "ring",
                 admission: float = 1.0) -> None:
        if table_kind not in ("ring", "dict"):
            raise ValueError(f"unknown table_kind: {table_kind!r}")
        if not 0.0 < admission <= 1.0:
            raise ValueError(f"admission must be in (0, 1], got {admission}")
        self.store = PacketStore(byte_budget, max_packets, eviction)
        self.admission = admission
        self._admission_threshold = int(admission * 0xFFFFFFFF)
        #: Payloads the admission coin declined to cache.
        self.admission_rejected = 0
        self.table_kind = table_kind
        self._ring: Optional[RingFingerprintTable] = (
            RingFingerprintTable() if table_kind == "ring" else None)
        self.table: Union[RingFingerprintTable, FingerprintTable] = (
            self._ring if self._ring is not None else FingerprintTable())
        self.flushes = 0
        #: Cache generation, stamped onto encoded packets by gateways
        #: running the resilience layer (see repro.gateway.resilience).
        #: Bumped explicitly on resync — NOT by flush(), because the
        #: Cache Flush policy flushes on every retransmission without
        #: the caches diverging.
        self.epoch = 0
        self._external_ids: Dict[int, int] = {}
        self._unusable_store_ids: set = set()
        # One generation of history: when a fingerprint's entry is
        # replaced, the displaced entry is kept here.  Decoders use it
        # to resolve references made against a slightly older cache
        # state (the encoder's view can lag by up to one RTT).
        self._previous_entries: Dict[int, CacheEntry] = {}

    def insert_packet(self, payload: bytes,
                      anchors: list,
                      tcp_seq: Optional[int] = None,
                      flow: Optional[tuple] = None,
                      packet_counter: int = 0,
                      external_id: Optional[int] = None) -> int:
        """Cache ``payload`` and point all its anchors at it.

        This is the Cache Update Procedure of Fig. 2 / Fig. 7: each
        selected fingerprint's table entry is replaced to reference the
        new packet.  Returns the payload's store id, or ``0`` when the
        admission coin declined the payload.
        """
        if (self.admission < 1.0
                and zlib.crc32(payload) > self._admission_threshold):
            self.admission_rejected += 1
            return 0
        store_id = self.store.add(payload)
        if external_id is not None:
            self._external_ids[store_id] = external_id
            if len(self._external_ids) > 4 * len(self.store._data) + 64:
                self._prune_external_ids()
        ring = self._ring
        if ring is not None:
            # Batched path: anchors stay numpy end-to-end; one packet
            # record plus vectorised array fills, no per-anchor objects.
            # Displaced generations stay in the ring, so the history
            # fallback needs no per-insert tracking either.
            if type(anchors) is AnchorSet:
                ring.insert_batch(anchors.offsets, anchors.fingerprints,
                                  store_id, tcp_seq, flow, packet_counter,
                                  anchors.fps_list())
            else:
                pairs = anchors if hasattr(anchors, "__len__") else list(anchors)
                offsets = np.fromiter((pair[0] for pair in pairs),
                                      dtype=np.int64, count=len(pairs))
                fps = np.fromiter((pair[1] for pair in pairs),
                                  dtype=np.uint64, count=len(pairs))
                ring.insert_batch(offsets, fps, store_id, tcp_seq, flow,
                                  packet_counter)
            return store_id
        # Reference path: per-entry dict updates with explicit
        # displacement tracking (the pre-ring implementation).
        pairs = anchors.pairs() if hasattr(anchors, "pairs") else anchors
        if not hasattr(pairs, "__len__"):
            pairs = list(pairs)
        table = self.table
        assert isinstance(table, FingerprintTable)
        entries = table._table
        lookup = entries.get
        previous = self._previous_entries
        entry_cls = CacheEntry
        replaced = 0
        for offset, fingerprint in pairs:
            displaced = lookup(fingerprint)
            if displaced is not None:
                replaced += 1
                if displaced.store_id != store_id:
                    previous[fingerprint] = displaced
            entries[fingerprint] = entry_cls(fingerprint, store_id, offset,
                                             tcp_seq, flow, packet_counter)
        table.inserts += len(pairs)
        table.replacements += replaced
        return store_id

    def lookup(self, fingerprint: int) -> Optional[Tuple[TableEntry, bytes]]:
        """Return (entry, cached payload) or None.

        Entries pointing at evicted payloads are removed lazily.
        """
        ring = self._ring
        if ring is not None:
            # Ring fast path: same checks as below, but inlined against
            # the table arrays so the (common) miss and filtered cases
            # never materialise a RingEntry view.
            entry_id = ring._index.get(fingerprint)
            if entry_id is None:
                return None
            if entry_id in ring._unusable_ids:
                return None
            store_id = ring._rec_store[ring._pkt[entry_id & ring._mask]]
            if store_id in self._unusable_store_ids:
                return None
            payload = self.store.get(store_id)
            if payload is None:
                ring.remove(fingerprint)
                return None
            return RingEntry(ring, entry_id), payload
        entry = self.table.get(fingerprint)
        if entry is None or not entry.usable:
            return None
        store_id = entry.store_id
        if store_id in self._unusable_store_ids:
            return None
        payload = self.store.get(store_id)
        if payload is None:
            self.table.remove(fingerprint)
            return None
        return entry, payload

    def lookup_view(self, fingerprint: int) -> Optional[memoryview]:
        """Zero-copy variant of :meth:`lookup` for region reads.

        Decoders splicing matched regions into a reconstruction buffer
        need only the stored payload bytes, not the table entry;
        serving them as a :class:`memoryview` (see
        :meth:`PacketStore.view`) skips one intermediate copy per
        referenced region.
        """
        ring = self._ring
        if ring is not None:
            entry_id = ring._index.get(fingerprint)
            if entry_id is None or entry_id in ring._unusable_ids:
                return None
            store_id = ring._rec_store[ring._pkt[entry_id & ring._mask]]
            if store_id in self._unusable_store_ids:
                return None
            view = self.store.view(store_id)
            if view is None:
                ring.remove(fingerprint)
            return view
        hit = self.lookup(fingerprint)
        if hit is None:
            return None
        return memoryview(hit[1])

    def lookup_previous(self, fingerprint: int) -> Optional[Tuple[TableEntry, bytes]]:
        """The displaced (one-generation-older) entry for a fingerprint.

        Used by decoders to resolve references encoded against a cache
        state from just before the latest replacement.
        """
        ring = self._ring
        entry: Optional[TableEntry]
        if ring is not None:
            entry = ring.previous_entry(fingerprint)
            if entry is None or not entry.usable:
                return None
            if entry.store_id in self._unusable_store_ids:
                return None
            payload = self.store.get(entry.store_id)
            if payload is None:
                return None
            return entry, payload
        entry = self._previous_entries.get(fingerprint)
        if entry is None or not entry.usable:
            return None
        if entry.store_id in self._unusable_store_ids:
            return None
        payload = self.store.get(entry.store_id)
        if payload is None:
            self._previous_entries.pop(fingerprint, None)
            return None
        return entry, payload

    def external_id_for(self, store_id: int) -> Optional[int]:
        """Originating packet id of a stored payload (for dependency
        tracking in the metrics layer), if one was recorded."""
        return self._external_ids.get(store_id)

    def flush(self) -> None:
        """Drop everything (the Cache Flush policy's reset, §V-A)."""
        self.store.clear()
        self.table.clear()
        self._external_ids.clear()
        self._unusable_store_ids.clear()
        self._previous_entries.clear()
        self.flushes += 1

    def bump_epoch(self) -> int:
        """Advance the cache generation (resync protocol commit point)."""
        self.epoch += 1
        return self.epoch

    def set_byte_budget(self, byte_budget: int) -> int:
        """Re-cap the packet store's byte budget; returns evictions forced.

        The memory-pressure half of the chaos faults (and the first
        brick of serving many users from one box: per-tenant budgets
        squeezed at runtime).  Fingerprint-table entries left dangling
        by the storm are invalidated lazily on lookup, exactly as for
        ordinary budget-driven eviction.
        """
        return self.store.set_byte_budget(byte_budget)

    def evict_fraction(self, fraction: float) -> int:
        """Evict the oldest ``fraction`` of stored payloads; returns count.

        Dangling fingerprint-table entries are invalidated lazily on
        lookup, exactly as for budget-driven eviction.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return self.store.evict_oldest(int(len(self.store) * fraction))

    def check_invariants(self) -> List[str]:
        """Machine-checked budget and accounting; returns violations.

        The serving oracle calls this during a run: the store holds no
        more bytes than its budget, and its running byte count equals
        the summed length of the payloads it actually holds.
        """
        store = self.store
        problems: List[str] = []
        if store.bytes_used > store.byte_budget:
            problems.append(f"{store.bytes_used} bytes exceeds budget "
                            f"{store.byte_budget}")
        actual = sum(len(payload) for payload in store._data.values())
        if actual != store.bytes_used:
            problems.append(f"accounted {store.bytes_used} bytes but "
                            f"stores {actual}")
        return problems

    def _prune_external_ids(self) -> None:
        live = set(self.store.ids())
        self._external_ids = {sid: ext for sid, ext in self._external_ids.items()
                              if sid in live}
        self._unusable_store_ids &= live
        self._previous_entries = {
            fp: entry for fp, entry in self._previous_entries.items()
            if entry.store_id in live}

    def mark_unusable(self, fingerprint: int) -> bool:
        """Informed marking: forbid encodings against the packet this
        fingerprint currently resolves to.

        The unit of marking is the *cached packet* (Lumezanu et al.
        mark lost packets), so every other fingerprint resolving to the
        same payload is disabled too — otherwise the encoder would just
        re-reference the lost packet through one of its other anchors.
        """
        entry = self.table.get(fingerprint)
        if entry is None:
            return False
        entry.usable = False
        self._unusable_store_ids.add(entry.store_id)
        return True
