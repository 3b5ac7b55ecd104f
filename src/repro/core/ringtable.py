"""Packet-record fingerprint table (batched fast path).

The dict-of-:class:`~repro.core.cache.CacheEntry` table costs one
object allocation and two dict probes per anchor per cached packet —
millions per sweep.  This table stores one *record* per cached packet
instead (store id, tcp seq, flow, counter and the packet's anchors are
identical for every anchor of one packet, so they are stored once) and
indexes anchors by plain int *keys*:

* ``_index`` — fingerprint -> key of its newest anchor, where a key
  packs ``(record id, anchor position)`` as ``record << 32 | position``;
  readers unpack it with a shift and a mask.  CPython dicts are open-addressed
  hash tables with C-speed bulk operations (``update(zip(...))``),
  which measured faster than a hand-rolled numpy open-addressed probe
  for this scalar-probe mix.
* ``_previous`` — fingerprint -> key of the anchor its newest insert
  displaced: the decoder's one-generation history.
* ``_records`` — record id -> :data:`_Record`.  Record ids are the
  table's own (not store ids), so the table also works standalone.
* a *candidate bitmap* — an epoch-stamped ``uint8`` array over a
  Fibonacci hash of the fingerprint space.  :meth:`candidates` answers
  "which of these anchors could be cached?" for a whole packet in a
  few vectorised ops, so the encoder's region loop only probes anchors
  that can hit (false positives are filtered by the index; false
  negatives cannot happen because bits are only invalidated by an
  epoch bump).

The table is bounded by the packet store: the owning
:class:`~repro.core.cache.ByteCache` calls :meth:`drop_store` from the
store's eviction hook, which removes the packet's record together with
its index entries, its history entries and its unusable mark.  Every
key reachable through the table therefore names a stored payload.
(The module keeps its historical name: the table used to be a numpy
ring buffer of entries that outlived their payloads.)

Newest-wins and insert/replacement counting match
:class:`~repro.core.cache.FingerprintTable` exactly — the encoder's
wire output is byte-identical whichever table backs the cache
(enforced by the differential runner and bench_hotpath's legacy
oracle).
"""

from __future__ import annotations

from itertools import compress
from operator import eq
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

_U64 = np.uint64
#: Fibonacci multiplier (golden-ratio reciprocal mod 2**64) for the
#: candidate bitmap hash: one multiply + shift spreads fingerprints
#: uniformly over the bitmap slots.
_FIB = np.uint64(0x9E3779B97F4A7C15)

#: A key is ``record << KEY_SHIFT | position``: the anchor's position
#: in its packet's record, so one packet's keys are a ``range``.
#: Record ids start at 1, so no key is 0 (falsy) — the history update
#: filters on truthiness.
KEY_SHIFT = 32
POSITION_MASK = (1 << KEY_SHIFT) - 1

#: One cached packet: (store_id, tcp_seq, flow, packet_counter,
#: fingerprints, offsets).  ``fingerprints`` is a uint64 array and
#: ``offsets`` an int64 array seen through a memoryview (its items
#: index straight to Python ints), one element per anchor as inserted:
#: 16 bytes per anchor, against ~80 for lists of Python ints.
_Record = Tuple[int, Optional[int], Optional[tuple], int, np.ndarray,
                memoryview]

_EMPTY_BOOL = np.zeros(0, dtype=bool)
_EMPTY_I64 = np.empty(0, dtype=np.int64)


class RingEntry:
    """View of one table entry (CacheEntry-compatible).

    Allocated only for fingerprints that *hit* — the miss path never
    materialises an entry.  Attribute reads go straight to the packet
    record; ``usable`` writes through (informed marking marks the
    whole packet).
    """

    __slots__ = ("_table", "_key", "fingerprint")

    def __init__(self, table: "RingFingerprintTable", key: int,
                 fingerprint: int) -> None:
        self._table = table
        self._key = key
        self.fingerprint = fingerprint

    @property
    def offset(self) -> int:
        return self._table._records[self._key >> KEY_SHIFT][5][
            self._key & POSITION_MASK]

    @property
    def store_id(self) -> int:
        return self._table._records[self._key >> KEY_SHIFT][0]

    @property
    def tcp_seq(self) -> Optional[int]:
        return self._table._records[self._key >> KEY_SHIFT][1]

    @property
    def flow(self) -> Optional[tuple]:
        return self._table._records[self._key >> KEY_SHIFT][2]

    @property
    def packet_counter(self) -> int:
        return self._table._records[self._key >> KEY_SHIFT][3]

    @property
    def usable(self) -> bool:
        return self._key >> KEY_SHIFT not in self._table._unusable

    @usable.setter
    def usable(self, value: bool) -> None:
        if value:
            self._table._unusable.discard(self._key >> KEY_SHIFT)
        else:
            self._table._unusable.add(self._key >> KEY_SHIFT)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RingEntry(fingerprint={self.fingerprint}, "
                f"store_id={self.store_id}, offset={self.offset}, "
                f"tcp_seq={self.tcp_seq}, flow={self.flow}, "
                f"packet_counter={self.packet_counter}, "
                f"usable={self.usable})")


class RingFingerprintTable:
    """fingerprint -> newest entry, backed by per-packet records."""

    def __init__(self, *, bitmap_bits: int = 18) -> None:
        if not 8 <= bitmap_bits <= 24:
            raise ValueError(f"bitmap_bits must be in [8, 24], "
                             f"got {bitmap_bits}")
        self._index: Dict[int, int] = {}
        self._previous: Dict[int, int] = {}
        self._records: Dict[int, _Record] = {}
        #: store id -> record id, for :meth:`drop_store`.
        self._record_of: Dict[int, int] = {}
        self._unusable: Set[int] = set()    # record ids (informed marking)
        self._next_record = 1
        #: Keep ``_previous``; off for caches nobody asks for history.
        self.history = True
        self.inserts = 0
        self.replacements = 0
        # Candidate bitmap (epoch-stamped; bump == clear-all).
        self._bm_bits = bitmap_bits
        self._bm = np.zeros(1 << bitmap_bits, dtype=np.uint8)
        self._bm_shift = _U64(64 - bitmap_bits)
        self._bm_epoch = 1
        # Grow-only scratch for the per-batch hash arithmetic (avoids a
        # small allocation per cached packet).  When the scratch holds
        # the bitmap hashes of a just-probed fingerprint array,
        # ``_scratch_tag`` is that array object: the encoder probes a
        # packet's anchors and then inserts the same array, so the
        # insert can reuse the hashes instead of recomputing them.
        self._scratch_u64 = np.empty(256, dtype=np.uint64)
        self._scratch_tag: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._index)

    def put(self, entry: object) -> None:
        """Insert one CacheEntry-shaped object as its own record
        (compatibility path)."""
        offsets = np.array([entry.offset], dtype=np.int64)  # type: ignore[attr-defined]
        fps = np.array([entry.fingerprint], dtype=np.uint64)  # type: ignore[attr-defined]
        self.insert_batch(offsets, fps,
                          entry.store_id,      # type: ignore[attr-defined]
                          entry.tcp_seq,       # type: ignore[attr-defined]
                          entry.flow,          # type: ignore[attr-defined]
                          entry.packet_counter)  # type: ignore[attr-defined]
        if not getattr(entry, "usable", True):
            self._unusable.add(self._next_record - 1)

    # -- the batched hot path ----------------------------------------------

    def insert_batch(self, offsets: np.ndarray, fps: np.ndarray,
                     store_id: int, tcp_seq: Optional[int],
                     flow: Optional[tuple], packet_counter: int,
                     fps_list: Optional[List[int]] = None) -> None:
        """Point every ``(offset, fingerprint)`` anchor at one packet.

        One record plus C-speed bulk index and history updates — no
        per-anchor Python.  Later anchors win on duplicate fingerprints
        within the batch, matching the per-entry loop's newest-wins
        order; the history keeps what each anchor displaced.

        ``fps_list``, when given, must be ``fps.tolist()`` — callers
        that already materialised it (the encoder probes the same
        fingerprints before inserting) pass it in to skip a second
        conversion.
        """
        rec = self._next_record
        self._next_record = rec + 1
        # Batched anchors are slices of one window-wide array, which
        # then lives until the window's last record is dropped: at most
        # one window of anchors beyond the stored packets'.
        self._records[rec] = (store_id, tcp_seq, flow, packet_counter,
                              fps, memoryview(offsets))
        self._record_of[store_id] = rec
        n = len(fps)
        if n == 0:
            return
        if fps_list is None:
            fps_list = fps.tolist()
        index = self._index
        before = len(index)
        old = list(map(index.get, fps_list)) if self.history else None
        base = rec << KEY_SHIFT
        index.update(zip(fps_list, range(base, base + n)))
        if old is not None:
            self._previous.update(compress(zip(fps_list, old), old))
        self.inserts += n
        self.replacements += n - (len(index) - before)
        if self._scratch_tag is fps:
            # The candidate probe of this same fingerprint array left
            # its bitmap hashes in the scratch — stamp them directly.
            scratch = self._scratch_u64[:n]
            self._scratch_tag = None
        else:
            scratch = self._hash_into_scratch(fps)
        self._bm[scratch] = self._bm_epoch
        if len(index) > (len(self._bm) >> 3) and self._bm_bits < 22:
            self._rebuild_bitmap(self._bm_bits + 2)

    def drop_store(self, store_id: int) -> None:
        """Forget the packet stored under ``store_id`` (eviction hook).

        Removes its record, every index entry still pointing at it
        (with that fingerprint's history: the history only answers
        while the current entry resolves), every history entry
        pointing at it, and its unusable mark.
        """
        rec = self._record_of.pop(store_id, None)
        if rec is None:
            return
        fps = self._records.pop(rec)[4].tolist()
        base = rec << KEY_SHIFT
        keys = range(base, base + len(fps))
        self._unusable.discard(rec)
        index = self._index
        previous = self._previous
        # Keys are unique, so each fingerprint matches at most once.
        for fp in list(compress(fps, map(eq, map(index.get, fps), keys))):
            del index[fp]
            previous.pop(fp, None)
        for fp in list(compress(fps, map(eq, map(previous.get, fps), keys))):
            del previous[fp]

    def _hash_into_scratch(self, fps: np.ndarray) -> np.ndarray:
        n = len(fps)
        if len(self._scratch_u64) < n:
            self._scratch_u64 = np.empty(
                max(n, 2 * len(self._scratch_u64)), dtype=np.uint64)
        hashed = self._scratch_u64[:n]
        np.multiply(fps, _FIB, out=hashed)
        hashed >>= self._bm_shift
        return hashed

    def candidates(self, fps: np.ndarray) -> np.ndarray:
        """Boolean mask: which fingerprints *may* be present.

        Vectorised prefilter for the encoder's region loop: no false
        negatives (every indexed fingerprint has its bit stamped with
        the current epoch), a few false positives (hash sharing plus
        stale bits from removed entries), all filtered by the index.
        """
        if len(fps) == 0:
            return _EMPTY_BOOL
        hashed = self._hash_into_scratch(fps)
        self._scratch_tag = fps
        return self._bm[hashed] == self._bm_epoch

    def candidate_indices(self, fps: np.ndarray) -> np.ndarray:
        """Indices of the fingerprints that *may* be present.

        :meth:`candidates` fused with the ``nonzero`` the encoder
        always performs next — one call, one fewer intermediate.
        """
        if len(fps) == 0:
            return _EMPTY_I64
        hashed = self._hash_into_scratch(fps)
        self._scratch_tag = fps
        return (self._bm[hashed] == self._bm_epoch).nonzero()[0]

    # -- scalar API (FingerprintTable-compatible) --------------------------

    def get(self, fingerprint: int) -> Optional[RingEntry]:
        key = self._index.get(fingerprint)
        if key is None:
            return None
        return RingEntry(self, key, fingerprint)

    def clear(self) -> None:
        self._index.clear()
        self._previous.clear()
        self._records.clear()
        self._record_of.clear()
        self._unusable.clear()
        self._scratch_tag = None
        self._bump_bitmap_epoch()

    def entries(self) -> Iterator[RingEntry]:
        """Views of the *current* entry of every indexed fingerprint."""
        for fingerprint, key in list(self._index.items()):
            yield RingEntry(self, key, fingerprint)

    def previous_entry(self, fingerprint: int) -> Optional[RingEntry]:
        """The entry the fingerprint's newest insert displaced.

        The decoder's one-generation history fallback: when a reference
        raced a cache update, the displaced entry (same fingerprint,
        previous stored packet) may still resolve it.  ``None`` once
        either packet has been evicted.
        """
        key = self._previous.get(fingerprint)
        if key is None:
            return None
        return RingEntry(self, key, fingerprint)

    def check(self, stored: Set[int]) -> List[str]:
        """Table–store consistency against the set of stored ids.

        Exactly one record per stored payload, and every index and
        history entry resolves to one of those records' own anchors —
        which also bounds the index by the stored packets' anchors.
        """
        problems: List[str] = []
        records = self._records
        by_store = {record[0]: rec for rec, record in records.items()}
        if len(by_store) != len(records) or by_store != self._record_of:
            problems.append("store-id -> record map disagrees with the "
                            "records")
        if set(by_store) != stored:
            problems.append(f"{len(records)} records for {len(stored)} "
                            f"stored payloads (records without payload: "
                            f"{sorted(set(by_store) - stored)[:5]}, "
                            f"payloads without record: "
                            f"{sorted(stored - set(by_store))[:5]})")
        anchors = set()
        for rec, record in records.items():
            base = rec << KEY_SHIFT
            anchors.update(zip(record[4].tolist(),
                               range(base, base + len(record[4]))))
        for name, table in (("index", self._index),
                            ("history", self._previous)):
            dangling = [fp for fp, key in table.items()
                        if (fp, key) not in anchors]
            if dangling:
                problems.append(f"{len(dangling)} {name} entries resolve "
                                f"to no stored packet (first: "
                                f"{dangling[0]:#x})")
        if not self._previous.keys() <= self._index.keys():
            problems.append("history entries without a current entry")
        if not self._unusable <= records.keys():
            problems.append("unusable marks on evicted records")
        return problems

    # -- bitmap maintenance ------------------------------------------------

    def _bump_bitmap_epoch(self) -> None:
        self._bm_epoch += 1
        if self._bm_epoch == 256:
            self._bm.fill(0)
            self._bm_epoch = 1

    def _rebuild_bitmap(self, bits: int) -> None:
        self._scratch_tag = None
        self._bm_bits = bits
        self._bm = np.zeros(1 << bits, dtype=np.uint8)
        self._bm_shift = _U64(64 - bits)
        self._bm_epoch = 1
        if self._index:
            fps = np.fromiter(self._index.keys(), dtype=np.uint64,
                              count=len(self._index))
            hashed = fps * _FIB
            hashed >>= self._bm_shift
            self._bm[hashed] = self._bm_epoch
