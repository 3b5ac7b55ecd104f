"""Record-table (repro.core.ringtable) edge cases.

The per-packet record table must match the reference
dict table observable-for-observable; these tests pin the corners the
differential runner's whole-pipeline comparison can miss: bitmap hash
collisions, the epoch stamp across flushes, the table staying bounded
by the packet store under every eviction path, and property-level
parity sweeps against the dict table through the ByteCache front door.
"""

import numpy as np
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
        table = RingFingerprintTable(bitmap_bits=8)
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
        table = RingFingerprintTable(bitmap_bits=10)
        fingerprints = list(range(1000, 1100))
        _insert(table, fingerprints)
        mask = table.candidates(np.array(fingerprints, dtype=np.uint64))
        assert mask.all()

    def test_candidate_indices_matches_candidates(self):
        table = RingFingerprintTable()
        _insert(table, [7, 11, 13])
        probe = np.array([5, 7, 9, 11, 13, 15], dtype=np.uint64)
        mask = table.candidates(probe)
        idxs = table.candidate_indices(probe)
        assert idxs.tolist() == mask.nonzero()[0].tolist()

    def test_scratch_tag_reuse_after_probe(self):
        # Probing then inserting the SAME array must stamp the same
        # bitmap slots as a cold insert (the tag shortcut skips the
        # hash recompute, not the stamping).
        tagged = RingFingerprintTable()
        cold = RingFingerprintTable()
        fps = np.array([101, 202, 303], dtype=np.uint64)
        offsets = np.arange(3, dtype=np.int64)
        tagged.candidates(fps)          # leaves hashes + tag in scratch
        tagged.insert_batch(offsets, fps, 0, None, None, 0)
        cold.insert_batch(offsets, fps.copy(), 0, None, None, 0)
        assert np.array_equal(tagged._bm, cold._bm)
        # Tag is consumed: a second insert recomputes.
        assert tagged._scratch_tag is None

    def test_epoch_bump_clears_without_touching_memory(self):
        table = RingFingerprintTable()
        _insert(table, [42])
        assert table.candidates(np.array([42], dtype=np.uint64))[0]
        table.clear()
        assert not table.candidates(np.array([42], dtype=np.uint64))[0]

    def test_epoch_wraps_at_256_flushes(self):
        table = RingFingerprintTable()
        for _ in range(300):    # crosses the uint8 wrap at least once
            _insert(table, [42])
            assert table.candidates(np.array([42], dtype=np.uint64))[0]
            table.clear()
            assert not table.candidates(
                np.array([42], dtype=np.uint64))[0]
            assert table.get(42) is None


def _assert_bounded(cache):
    """The table holds one record per stored payload and no more index
    entries than those payloads have anchors."""
    table = cache.table
    assert len(table._records) == len(cache.store)
    anchors = sum(len(record[4]) for record in table._records.values())
    assert len(table) <= anchors
    assert cache.check_invariants() == []


def _fill(cache, count, start=0, size=100):
    """``count`` distinct payloads, three anchors each; consecutive
    payloads share one fingerprint so entries also get replaced."""
    sids = []
    for i in range(start, start + count):
        anchors = [(0, 1000 + i), (8, 5000 + i), (16, 9000 + i // 2)]
        sids.append(cache.insert_packet(bytes([i % 256]) * size, anchors,
                                        external_id=i))
        _assert_bounded(cache)
    return sids


class TestStoreBoundedTable:
    def test_fifo_budget_eviction_drops_entries(self):
        cache = ByteCache(1_000)
        _fill(cache, 40)
        assert len(cache.store) == 10
        assert cache.table.get(1000) is None       # oldest payload gone
        assert cache.lookup(1039) is not None
        assert len(cache._external_ids) == len(cache.store)

    def test_lru_budget_keeps_touched_payload_entries(self):
        cache = ByteCache(1_000, eviction="lru")
        _fill(cache, 10)
        for i in range(10, 30):
            assert cache.lookup(1000) is not None   # keep payload 0 hot
            _fill(cache, 1, start=i)
        assert cache.lookup(1000) is not None
        assert cache.table.get(1001) is None

    def test_evict_fraction_drops_entries(self):
        cache = ByteCache(1 << 20)
        _fill(cache, 20)
        assert cache.evict_fraction(0.5) == 10
        _assert_bounded(cache)
        assert cache.table.get(1009) is None
        assert cache.lookup(1010) is not None

    def test_set_byte_budget_storms(self):
        cache = ByteCache(1 << 20, eviction="lru")
        for round_ in range(5):
            _fill(cache, 12, start=12 * round_)
            assert cache.set_byte_budget(300) > 0
            _assert_bounded(cache)
            assert cache.set_byte_budget(1 << 20) == 0
        assert len(cache.store) == 3

    def test_flush_empties_table(self):
        cache = ByteCache(1 << 20)
        _fill(cache, 8)
        cache.flush()
        _assert_bounded(cache)
        assert len(cache.table) == 0
        assert not cache.table._previous

    def test_payload_larger_than_budget_leaves_no_entries(self):
        cache = ByteCache(1_000)
        _fill(cache, 2)
        sid = cache.insert_packet(b"z" * 2_000, [(0, 1000), (8, 7)],
                                  external_id=99)
        assert sid not in cache.store
        _assert_bounded(cache)
        # The oversized payload displaced fingerprint 1000, exactly as
        # an insert that is evicted at once would.
        assert cache.lookup(1000) is None

    def test_check_reports_dangling_record(self):
        cache = ByteCache(1 << 20)
        _fill(cache, 2)
        cache.table.insert_batch(np.zeros(1, dtype=np.int64),
                                 np.array([77], dtype=np.uint64),
                                 10_000, None, None, 0)
        problems = cache.check_invariants()
        assert len(problems) == 1
        assert "records without payload: [10000]" in problems[0]


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
    ring = RingFingerprintTable()
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


def _old_ring_previous(log, cache, fingerprint):
    """The history answer of the former ring table, from the insert log:
    the newest older entry whose packet differs from the current one's,
    if that packet is still stored."""
    entries = log.get(fingerprint, [])
    current_sid = entries[-1][0]
    for sid, offset, payload in reversed(entries):
        if sid != current_sid:
            return (payload, offset) if sid in cache.store else None
    return None


_history_op_st = st.one_of(
    st.tuples(st.just("insert"), st.integers(20, 400),
              st.lists(st.tuples(st.integers(0, 16), _fp_st),
                       min_size=1, max_size=4)),
    st.tuples(st.just("lookup"), _fp_st),
    st.tuples(st.just("evict"), st.sampled_from([0.25, 0.5, 1.0])),
    st.tuples(st.just("budget"), st.sampled_from([300, 800, 2_000])),
)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_history_op_st, max_size=50),
       eviction=st.sampled_from(["fifo", "lru"]),
       table_kind=st.sampled_from(["ring", "dict"]))
def test_lookup_previous_matches_old_ring_when_lookup_resolves(
        ops, eviction, table_kind):
    """Whenever ``lookup`` resolves (the only case the decoder's history
    fallback reaches), ``lookup_previous`` answers what the former ring
    table did, under every eviction path; once the current entry's
    payload is evicted, both history and lookup answer ``None``."""
    cache = ByteCache(2_000, eviction=eviction, table_kind=table_kind)
    log = {}
    for index, op in enumerate(ops):
        if op[0] == "insert":
            _, size, anchors = op
            payload = bytes([index % 256]) * size
            sid = cache.insert_packet(payload, anchors)
            for offset, fingerprint in anchors:
                log.setdefault(fingerprint, []).append((sid, offset,
                                                        payload))
        elif op[0] == "lookup":
            cache.lookup(op[1])
        elif op[0] == "evict":
            cache.evict_fraction(op[1])
        else:
            cache.set_byte_budget(op[1])
        assert cache.check_invariants() == []
        for fingerprint in log:
            hit = cache.lookup(fingerprint)
            previous = cache.lookup_previous(fingerprint)
            if hit is None:
                assert previous is None
                continue
            view = (None if previous is None
                    else (previous[1], previous[0].offset))
            assert view == _old_ring_previous(log, cache, fingerprint)
