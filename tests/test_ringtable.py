"""Ring-buffer fingerprint table edge cases.

The contiguous table (repro.core.ringtable) must match the reference
dict table observable-for-observable; these tests pin the corners the
differential runner's whole-pipeline comparison can miss: bitmap hash
collisions, fixed-capacity wrap evicting live entries, the epoch stamp
across flushes, and a property-level parity sweep against the dict
table through the ByteCache front door.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import ByteCache, CacheEntry, FingerprintTable
from repro.core.ringtable import _FIB, RingFingerprintTable


def _insert(table, fingerprints, store_id=0, counter=0):
    fps = np.array(fingerprints, dtype=np.uint64)
    offsets = np.arange(len(fingerprints), dtype=np.int64)
    table.insert_batch(offsets, fps, store_id, None, None, counter)


def _colliding_fingerprints(bits):
    """Two distinct fingerprints sharing one bitmap slot."""
    multiplier = int(_FIB)
    shift = 64 - bits
    base = 12345
    target = (base * multiplier) % (1 << 64) >> shift
    for candidate in range(base + 1, base + 1_000_000):
        if (candidate * multiplier) % (1 << 64) >> shift == target:
            return base, candidate
    raise AssertionError("no collision found in search range")


class TestCandidateBitmap:
    def test_hash_collision_is_a_false_positive_only(self):
        table = RingFingerprintTable(capacity=64, bitmap_bits=8)
        present, absent = _colliding_fingerprints(8)
        _insert(table, [present])
        mask = table.candidates(np.array([present, absent],
                                         dtype=np.uint64))
        # The bitmap cannot tell the two apart (shared slot) ...
        assert mask.tolist() == [True, True]
        # ... but the index ground truth can.
        assert table.get(present) is not None
        assert table.get(absent) is None

    def test_no_false_negatives(self):
        table = RingFingerprintTable(capacity=256, bitmap_bits=10)
        fingerprints = list(range(1000, 1100))
        _insert(table, fingerprints)
        mask = table.candidates(np.array(fingerprints, dtype=np.uint64))
        assert mask.all()

    def test_candidate_indices_matches_candidates(self):
        table = RingFingerprintTable(capacity=64)
        _insert(table, [7, 11, 13])
        probe = np.array([5, 7, 9, 11, 13, 15], dtype=np.uint64)
        mask = table.candidates(probe)
        idxs = table.candidate_indices(probe)
        assert idxs.tolist() == mask.nonzero()[0].tolist()

    def test_scratch_tag_reuse_after_probe(self):
        # Probing then inserting the SAME array must stamp the same
        # bitmap slots as a cold insert (the tag shortcut skips the
        # hash recompute, not the stamping).
        tagged = RingFingerprintTable(capacity=64)
        cold = RingFingerprintTable(capacity=64)
        fps = np.array([101, 202, 303], dtype=np.uint64)
        offsets = np.arange(3, dtype=np.int64)
        tagged.candidates(fps)          # leaves hashes + tag in scratch
        tagged.insert_batch(offsets, fps, 0, None, None, 0)
        cold.insert_batch(offsets, fps.copy(), 0, None, None, 0)
        assert np.array_equal(tagged._bm, cold._bm)
        # Tag is consumed: a second insert recomputes.
        assert tagged._scratch_tag is None

    def test_epoch_bump_clears_without_touching_memory(self):
        table = RingFingerprintTable(capacity=64)
        _insert(table, [42])
        assert table.candidates(np.array([42], dtype=np.uint64))[0]
        table.clear()
        assert not table.candidates(np.array([42], dtype=np.uint64))[0]

    def test_epoch_wraps_at_256_flushes(self):
        table = RingFingerprintTable(capacity=64)
        for _ in range(300):    # crosses the uint8 wrap at least once
            _insert(table, [42])
            assert table.candidates(np.array([42], dtype=np.uint64))[0]
            table.clear()
            assert not table.candidates(
                np.array([42], dtype=np.uint64))[0]
            assert table.get(42) is None


class TestFixedModeWrap:
    def test_wrap_evicts_oldest_live_entries(self):
        table = RingFingerprintTable(capacity=4, autogrow=False)
        _insert(table, [1, 2], store_id=0)
        _insert(table, [3, 4], store_id=1)
        assert len(table) == 4
        # The ring is full: two more anchors advance the floor past the
        # two oldest entries, evicting them even though still current.
        _insert(table, [5, 6], store_id=2)
        assert table.get(1) is None
        assert table.get(2) is None
        assert table.get(5) is not None
        assert table.evictions == 2
        floor, nxt = table.id_window()
        assert nxt - floor == 4

    def test_wrap_does_not_evict_replaced_fingerprints_twice(self):
        table = RingFingerprintTable(capacity=4, autogrow=False)
        _insert(table, [1, 2], store_id=0)
        _insert(table, [1, 2], store_id=1)   # replaces both
        _insert(table, [3, 4], store_id=2)   # wraps past the stale pair
        # The stale first-generation entries were not the index's
        # current ids, so nothing live was evicted.
        assert table.evictions == 0
        assert table.get(1).store_id == 1
        assert table.get(3).store_id == 2

    def test_wrap_drops_unusable_marks_of_evicted_ids(self):
        table = RingFingerprintTable(capacity=4, autogrow=False)
        _insert(table, [1, 2], store_id=0)
        entry = table.get(1)
        entry.usable = False
        _insert(table, [3, 4], store_id=1)
        _insert(table, [5, 6], store_id=2)   # evicts ids 0 and 1
        assert not table._unusable_ids
        # A fresh insert reusing the wrapped slots starts usable.
        _insert(table, [7, 8], store_id=3)
        assert table.get(7).usable

    def test_batch_larger_than_fixed_capacity_rejected(self):
        table = RingFingerprintTable(capacity=4, autogrow=False)
        with pytest.raises(ValueError):
            _insert(table, [1, 2, 3, 4, 5])


class TestAutogrow:
    def test_compaction_preserves_current_and_previous(self):
        table = RingFingerprintTable(capacity=8)
        # Two indexed fingerprints replaced over and over: room-making
        # picks compaction (4 * index size <= capacity) over growth.
        for store_id in range(5):
            _insert(table, [1, 2], store_id=store_id)
        assert table.compactions >= 1
        assert table.grows == 0
        assert table.get(1).store_id == 4
        previous = table.previous_entry(1)
        assert previous is not None and previous.store_id == 3

    def test_growth_keeps_all_ids_valid(self):
        table = RingFingerprintTable(capacity=4)
        _insert(table, list(range(100, 108)), store_id=0)
        assert table.grows >= 1
        for fingerprint in range(100, 108):
            assert table.get(fingerprint) is not None


def _entry(fingerprint, store_id, offset, counter):
    return CacheEntry(fingerprint, store_id, offset, None, None, counter)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 30),                  # fingerprint (small: forces replacements)
              st.integers(0, 5),                   # packets-back store ref
              st.integers(0, 200)),                # offset
    min_size=1, max_size=60))
def test_ring_matches_dict_table_property(ops):
    """Same insert sequence → same observable state as the dict table."""
    ring = RingFingerprintTable(capacity=8)
    reference = FingerprintTable()
    for counter, (fingerprint, store_id, offset) in enumerate(ops):
        ring.put(_entry(fingerprint, store_id, offset, counter))
        reference.put(_entry(fingerprint, store_id, offset, counter))
    assert len(ring) == len(reference)
    assert ring.inserts == reference.inserts
    assert ring.replacements == reference.replacements
    for fingerprint, _, _ in ops:
        ring_hit = ring.get(fingerprint)
        ref_hit = reference.get(fingerprint)
        assert (ring_hit is None) == (ref_hit is None)
        if ring_hit is not None:
            assert ring_hit.store_id == ref_hit.store_id
            assert ring_hit.offset == ref_hit.offset
            assert ring_hit.packet_counter == ref_hit.packet_counter


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=40, max_size=600),
                min_size=1, max_size=12),
       st.integers(0, 2 ** 16))
def test_cache_insert_parity_ring_vs_dict(payloads, seed):
    """insert_packet + lookup through ByteCache: ring == dict."""
    from repro.core.fingerprint import FingerprintScheme

    scheme = FingerprintScheme(window=16, zero_bits=2)
    ring_cache = ByteCache(1 << 20, table_kind="ring")
    dict_cache = ByteCache(1 << 20, table_kind="dict")
    fingerprints = set()
    for counter, payload in enumerate(payloads):
        anchors = scheme.anchors(payload)
        fingerprints.update(fp for _, fp in anchors.pairs())
        for cache in (ring_cache, dict_cache):
            cache.insert_packet(payload, scheme.anchors(payload),
                                tcp_seq=counter * 1460,
                                packet_counter=counter)
    fingerprints.add(seed)          # probe at least one likely-miss
    for fingerprint in fingerprints:
        ring_hit = ring_cache.lookup(fingerprint)
        dict_hit = dict_cache.lookup(fingerprint)
        assert (ring_hit is None) == (dict_hit is None)
        if ring_hit is not None:
            assert ring_hit[1] == dict_hit[1]
            assert ring_hit[0].offset == dict_hit[0].offset
        # Zero-copy view agrees with the copying lookup.
        view = ring_cache.lookup_view(fingerprint)
        assert (view is None) == (ring_hit is None)
        if view is not None:
            assert bytes(view) == ring_hit[1]


# Value-selection anchors have their low zero_bits (4) bits zero.
_PARITY_FPS = [(i * 2654435761 % (1 << 36)) << 4 for i in range(1, 25)]
_fp_st = st.sampled_from(_PARITY_FPS)
_op_st = st.one_of(
    st.tuples(st.just("insert"),
              st.binary(min_size=1, max_size=64),
              st.lists(st.tuples(st.integers(0, 48), _fp_st), max_size=4)),
    st.tuples(st.just("lookup"), _fp_st),
    st.tuples(st.just("previous"), _fp_st),
    st.tuples(st.just("mark"), _fp_st),
    st.tuples(st.just("flush")),
)


def _hit_view(hit):
    if hit is None:
        return None
    entry, payload = hit
    return (payload, entry.offset, entry.tcp_seq, entry.flow,
            entry.packet_counter, entry.usable)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(_op_st, max_size=60),
       admission=st.sampled_from([1.0, 0.5]))
def test_cache_interleaving_parity_ring_vs_dict(ops, admission):
    """Any interleaving of inserts, lookups, history lookups, markings
    and flushes: the ring-backed ByteCache answers exactly as the dict
    reference does, with or without the admission coin."""
    ring_cache = ByteCache(1 << 30, table_kind="ring", admission=admission)
    dict_cache = ByteCache(1 << 30, table_kind="dict", admission=admission)
    counter = 0
    for op in ops:
        if op[0] == "insert":
            _, payload, anchors = op
            sids = [cache.insert_packet(payload, anchors, tcp_seq=counter,
                                        flow=("f", counter % 3),
                                        packet_counter=counter,
                                        external_id=counter)
                    for cache in (ring_cache, dict_cache)]
            assert sids[0] == sids[1]
            assert ring_cache.external_id_for(sids[0]) == \
                dict_cache.external_id_for(sids[1])
            counter += 1
        elif op[0] == "lookup":
            assert _hit_view(ring_cache.lookup(op[1])) == \
                _hit_view(dict_cache.lookup(op[1]))
            view_a = ring_cache.lookup_view(op[1])
            view_b = dict_cache.lookup_view(op[1])
            assert (view_a is None) == (view_b is None)
            if view_a is not None:
                assert bytes(view_a) == bytes(view_b)
        elif op[0] == "previous":
            assert _hit_view(ring_cache.lookup_previous(op[1])) == \
                _hit_view(dict_cache.lookup_previous(op[1]))
        elif op[0] == "mark":
            assert ring_cache.mark_unusable(op[1]) == \
                dict_cache.mark_unusable(op[1])
        else:
            ring_cache.flush()
            dict_cache.flush()
    assert ring_cache.admission_rejected == dict_cache.admission_rejected
    assert len(ring_cache.store) == len(dict_cache.store)
    assert ring_cache.store.bytes_used == dict_cache.store.bytes_used
    for fp in _PARITY_FPS:
        assert _hit_view(ring_cache.lookup(fp)) == \
            _hit_view(dict_cache.lookup(fp))
    assert ring_cache.check_invariants() == []
    assert dict_cache.check_invariants() == []
