"""Unit tests for the byte caches (packet store + fingerprint table)."""

import zlib

import pytest

from repro.core.cache import (ByteCache, CacheEntry, FingerprintTable,
                              PacketStore)


class TestPacketStore:
    def test_add_and_get(self):
        store = PacketStore()
        store_id = store.add(b"payload")
        assert store.get(store_id) == b"payload"
        assert store_id in store

    def test_byte_budget_evicts_fifo(self):
        store = PacketStore(byte_budget=100)
        ids = [store.add(b"x" * 40) for _ in range(4)]
        assert ids[0] not in store
        assert ids[1] not in store  # 160 -> evict until <= 100
        assert ids[2] in store and ids[3] in store
        assert store.evictions == 2

    def test_max_packets_evicts_fifo(self):
        store = PacketStore(byte_budget=1 << 20, max_packets=2)
        ids = [store.add(b"abc") for _ in range(3)]
        assert ids[0] not in store
        assert len(store) == 2

    def test_bytes_used_tracks_evictions(self):
        store = PacketStore(byte_budget=100)
        store.add(b"x" * 60)
        store.add(b"y" * 60)
        assert store.bytes_used == 60

    def test_clear(self):
        store = PacketStore()
        store.add(b"data")
        store.clear()
        assert len(store) == 0
        assert store.bytes_used == 0

    @pytest.mark.parametrize("kwargs", [
        {"byte_budget": 0}, {"byte_budget": -1},
        {"byte_budget": 10, "max_packets": 0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            PacketStore(**kwargs)


class TestFingerprintTable:
    def test_put_get_remove(self):
        table = FingerprintTable()
        entry = CacheEntry(fingerprint=42, store_id=1, offset=0)
        table.put(entry)
        assert table.get(42) is entry
        table.remove(42)
        assert table.get(42) is None

    def test_newest_wins_replacement(self):
        table = FingerprintTable()
        table.put(CacheEntry(fingerprint=42, store_id=1, offset=0))
        newer = CacheEntry(fingerprint=42, store_id=2, offset=7)
        table.put(newer)
        assert table.get(42) is newer
        assert table.replacements == 1
        assert len(table) == 1

    def test_remove_missing_is_noop(self):
        FingerprintTable().remove(999)


class TestByteCache:
    def anchors(self, payload):
        return [(0, 100), (20, 200)]

    def test_insert_and_lookup(self):
        cache = ByteCache()
        cache.insert_packet(b"p" * 64, self.anchors(None), tcp_seq=5,
                            flow=("f",), packet_counter=3, external_id=77)
        entry, payload = cache.lookup(100)
        assert payload == b"p" * 64
        assert entry.tcp_seq == 5
        assert entry.flow == ("f",)
        assert entry.packet_counter == 3
        assert cache.external_id_for(entry.store_id) == 77

    def test_lookup_miss_returns_none(self):
        assert ByteCache().lookup(123) is None

    def test_lazy_invalidation_after_eviction(self):
        cache = ByteCache(byte_budget=100)
        cache.insert_packet(b"a" * 80, [(0, 1)])
        cache.insert_packet(b"b" * 80, [(0, 2)])  # evicts the first
        assert cache.lookup(1) is None            # removed lazily
        assert cache.table.get(1) is None
        entry, payload = cache.lookup(2)
        assert payload == b"b" * 80

    def test_replacement_points_to_newest_packet(self):
        """§III-A: 'updates its cache by replacing the entry for r from
        Pstored to Pnew'."""
        cache = ByteCache()
        cache.insert_packet(b"old" * 30, [(4, 55)])
        cache.insert_packet(b"new" * 30, [(9, 55)])
        entry, payload = cache.lookup(55)
        assert payload == b"new" * 30
        assert entry.offset == 9

    def test_flush_clears_everything(self):
        cache = ByteCache()
        cache.insert_packet(b"data", [(0, 9)], external_id=5)
        cache.flush()
        assert cache.lookup(9) is None
        assert len(cache.store) == 0
        assert cache.flushes == 1
        assert cache.external_id_for(1) is None

    def test_mark_unusable_blocks_lookup(self):
        cache = ByteCache()
        cache.insert_packet(b"data" * 10, [(0, 9)])
        assert cache.mark_unusable(9) is True
        assert cache.lookup(9) is None

    def test_mark_unusable_missing_fingerprint(self):
        assert ByteCache().mark_unusable(9) is False

    def test_unusable_entry_revives_on_replacement(self):
        cache = ByteCache()
        cache.insert_packet(b"one" * 20, [(0, 9)])
        cache.mark_unusable(9)
        cache.insert_packet(b"two" * 20, [(3, 9)])
        entry, payload = cache.lookup(9)
        assert payload == b"two" * 20

    def test_lookup_previous_returns_displaced_entry(self):
        cache = ByteCache()
        cache.insert_packet(b"old-payload" * 10, [(2, 9)])
        cache.insert_packet(b"new-payload" * 10, [(5, 9)])
        current = cache.lookup(9)
        previous = cache.lookup_previous(9)
        assert current[1] == b"new-payload" * 10
        assert previous[1] == b"old-payload" * 10
        assert previous[0].offset == 2

    def test_lookup_previous_empty_when_never_replaced(self):
        cache = ByteCache()
        cache.insert_packet(b"only" * 20, [(0, 9)])
        assert cache.lookup_previous(9) is None

    def test_lookup_previous_invalidated_by_eviction(self):
        cache = ByteCache(byte_budget=250)
        cache.insert_packet(b"a" * 100, [(0, 9)])
        cache.insert_packet(b"b" * 100, [(0, 9)])   # displaces a
        cache.insert_packet(b"c" * 100, [(0, 9)])   # evicts a's payload
        assert cache.lookup_previous(9) is None or \
            cache.lookup_previous(9)[1] == b"b" * 100

    def test_flush_clears_history(self):
        cache = ByteCache()
        cache.insert_packet(b"a" * 50, [(0, 9)])
        cache.insert_packet(b"b" * 50, [(0, 9)])
        cache.flush()
        assert cache.lookup_previous(9) is None

    def test_external_id_map_pruned(self):
        cache = ByteCache(byte_budget=1000, max_packets=4)
        for i in range(200):
            cache.insert_packet(b"x" * 100, [(0, i)], external_id=i)
        assert len(cache._external_ids) <= 4 * 4 + 64


# Value-selection anchors have their low zero_bits (4) bits zero.
FPS = [(i * 2654435761 % (1 << 36)) << 4 for i in range(1, 25)]
BIG = 1 << 30


class TestServingCache:
    """The behaviours a population's shared cache relies on: LRU,
    content-keyed admission, runtime re-budgeting, invariant checks."""

    def test_lru_keeps_hot_payloads_alive(self):
        # Room for ~2 payloads; touching A repeatedly must evict B, not
        # A (the reason serving defaults to LRU).
        cache = ByteCache(250, eviction="lru")
        fp_a, fp_b, fp_c = FPS[0], FPS[1], FPS[2]
        cache.insert_packet(b"A" * 100, [(0, fp_a)])
        cache.insert_packet(b"B" * 100, [(0, fp_b)])
        assert cache.lookup(fp_a) is not None   # touch A: now most-recent
        cache.insert_packet(b"C" * 100, [(0, fp_c)])
        assert cache.lookup(fp_a) is not None
        assert cache.lookup(fp_b) is None

    def test_probabilistic_admission_is_content_keyed(self):
        full = ByteCache(BIG, admission=1.0)
        half_a = ByteCache(BIG, admission=0.5)
        half_b = ByteCache(BIG, admission=0.5, table_kind="dict")
        payloads = [bytes([i]) * 40 for i in range(64)]
        admitted = 0
        for i, payload in enumerate(payloads):
            fp = FPS[i % len(FPS)]
            assert full.insert_packet(payload, [(0, fp)]) != 0
            sid_a = half_a.insert_packet(payload, [(0, fp)])
            sid_b = half_b.insert_packet(payload, [(0, fp)])
            # Content-keyed coin: two caches (think encoder + decoder)
            # always make the same decision for the same bytes.
            assert (sid_a == 0) == (sid_b == 0)
            expected = zlib.crc32(payload) <= int(0.5 * 0xFFFFFFFF)
            assert (sid_a != 0) == expected
            if sid_a == 0:
                # A declined payload is not cached under any anchor.
                assert half_a.lookup(fp) is None or \
                    half_a.lookup(fp)[1] != payload
            admitted += sid_a != 0
        assert 0 < admitted < len(payloads)
        assert half_a.admission_rejected == len(payloads) - admitted
        assert half_b.admission_rejected == half_a.admission_rejected
        assert full.admission_rejected == 0
        assert len(half_a.store) == admitted

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ByteCache(0)
        with pytest.raises(ValueError):
            ByteCache(1024, admission=0.0)
        with pytest.raises(ValueError):
            ByteCache(1024, admission=1.5)
        with pytest.raises(ValueError):
            ByteCache(1024).set_byte_budget(-1)
        assert ByteCache(1024, admission=1.0).admission == 1.0

    def test_set_byte_budget_rescales_and_evicts(self):
        cache = ByteCache(16_000, eviction="lru")
        for i in range(100):
            cache.insert_packet(bytes(120), [(0, FPS[i % len(FPS)])])
        evicted = cache.set_byte_budget(4_000)
        assert evicted > 0
        assert cache.store.byte_budget == 4_000
        assert cache.store.bytes_used <= 4_000
        assert cache.check_invariants() == []

    def test_evict_fraction_and_lazy_invalidation(self):
        cache = ByteCache(BIG)
        for i, fp in enumerate(FPS):
            cache.insert_packet(bytes([i]) * 50, [(0, fp)])
        before = len(cache.store)
        assert cache.evict_fraction(1.0) == before
        # Dangling table entries are invalidated lazily on lookup.
        assert len(cache.table) == len(FPS)
        for fp in FPS:
            assert cache.lookup(fp) is None
        assert len(cache.table) == 0
        with pytest.raises(ValueError):
            cache.evict_fraction(1.5)

    def test_check_invariants_catches_over_budget_and_accounting(self):
        cache = ByteCache(1_000)
        cache.insert_packet(b"x" * 300, [(0, FPS[0])])
        assert cache.check_invariants() == []
        # Manufacture the corruptions the oracle exists to catch: a
        # store grown past its budget behind the eviction loop's back,
        # then a byte count that no longer matches the payloads held.
        cache.store._data[10_000] = b"y" * 900
        cache.store._bytes += 900
        problems = cache.check_invariants()
        assert len(problems) == 1 and "exceeds budget" in problems[0]
        cache.store._bytes -= 1
        problems = cache.check_invariants()
        assert any("accounted 1199 bytes but stores 1200" in p
                   for p in problems)
