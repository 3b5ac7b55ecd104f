"""Hot-path microbenchmark: batched encoder vs the pre-batching oracle.

The encoder hot path fingerprints a whole window of packets in one
numpy pass (:meth:`FingerprintScheme.batch_anchors`), indexes cache
entries in the per-packet record table (:mod:`repro.core.ringtable`,
batch insert + bitmap candidate prefilter), and locates match
boundaries with single-slice compares plus a big-endian-XOR diff.
This bench keeps a faithful inline copy of the *previous*
implementation (per-packet hashing, per-element ``int()`` anchor
lists, dataclass entries, double dict probes per insert, per-byte
mismatch scans) and requires the live code to beat it by
``REQUIRED_SPEEDUP`` on the combined pipeline.

The workload is a three-phase traffic mix (fresh / cold transfer /
repeated transfer — see :func:`_packets`) so the gate covers the
insert-heavy, mixed, and hit-heavy regimes rather than a single
flattering one.  Speedup is the median of per-round time ratios with
the two pipelines timed back-to-back, which cancels machine-wide
noise.

Both pipelines must produce byte-identical wire output — the legacy
copy is an oracle, not just a stopwatch.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from conftest import print_report

from repro.core.cache import ByteCache, PacketStore
from repro.core.encoder import ByteCachingEncoder, EncodeResult, EncoderStats
from repro.core.fingerprint import FingerprintScheme
from repro.core.polyhash import _U64
from repro.core.region import Region
from repro.core.policies import PacketMeta, make_policy_pair
from repro.core.wire import (MIN_REGION_LENGTH, SHIM_SIZE, encode_payload,
                             wrap_raw)
from repro.experiments.sweep import append_bench_history
from repro.metrics.profiling import StageProfiler
from repro.workload.corpus import corpus_object

MSS = 1460
PACKETS = 192
ROUNDS = 9
REQUIRED_SPEEDUP = 3.0


# ---------------------------------------------------------------------------
# the pre-PR implementation, inlined
# ---------------------------------------------------------------------------

@dataclass
class _LegacyCacheEntry:
    fingerprint: int
    store_id: int
    offset: int
    tcp_seq: Optional[int] = None
    flow: Optional[tuple] = None
    packet_counter: int = 0
    usable: bool = True


class _LegacyFingerprintTable:
    def __init__(self) -> None:
        self._table: Dict[int, _LegacyCacheEntry] = {}
        self.inserts = 0
        self.replacements = 0

    def put(self, entry: _LegacyCacheEntry) -> None:
        if entry.fingerprint in self._table:
            self.replacements += 1
        self.inserts += 1
        self._table[entry.fingerprint] = entry

    def get(self, fingerprint: int) -> Optional[_LegacyCacheEntry]:
        return self._table.get(fingerprint)

    def remove(self, fingerprint: int) -> None:
        self._table.pop(fingerprint, None)


class _LegacyByteCache:
    def __init__(self, byte_budget: int):
        self.store = PacketStore(byte_budget)
        self.table = _LegacyFingerprintTable()
        self._unusable_store_ids: set = set()
        self._previous_entries: Dict[int, _LegacyCacheEntry] = {}
        self._external_ids: Dict[int, int] = {}

    def external_id_for(self, store_id: int):
        return self._external_ids.get(store_id)

    def insert_packet(self, payload: bytes, anchors: list,
                      tcp_seq=None, flow=None, packet_counter=0,
                      external_id=None) -> int:
        store_id = self.store.add(payload)
        if external_id is not None:
            self._external_ids[store_id] = external_id
        for offset, fingerprint in anchors:
            displaced = self.table.get(fingerprint)
            if displaced is not None and displaced.store_id != store_id:
                self._previous_entries[fingerprint] = displaced
            self.table.put(_LegacyCacheEntry(
                fingerprint=fingerprint,
                store_id=store_id,
                offset=offset,
                tcp_seq=tcp_seq,
                flow=flow,
                packet_counter=packet_counter,
            ))
        return store_id

    def lookup(self, fingerprint: int):
        entry = self.table.get(fingerprint)
        if entry is None or not entry.usable:
            return None
        if entry.store_id in self._unusable_store_ids:
            return None
        payload = self.store.get(entry.store_id)
        if payload is None:
            self.table.remove(fingerprint)
            return None
        return entry, payload


def _legacy_anchors(scheme: FingerprintScheme,
                    data: bytes) -> List[Tuple[int, int]]:
    """Pre-PR anchor selection: one ``int()`` call per anchor."""
    hashes = scheme._impl.hashes(data)
    if len(hashes) == 0:
        return []
    selected = np.nonzero((hashes & _U64(scheme.mask)) == 0)[0]
    return [(int(off), int(hashes[off])) for off in selected]


def _legacy_prefix(a, a_start, b, b_start, limit):
    n = 0
    chunk = 256
    while n < limit:
        step = min(chunk, limit - n)
        if a[a_start + n: a_start + n + step] == b[b_start + n: b_start + n + step]:
            n += step
            continue
        for i in range(step):
            if a[a_start + n + i] != b[b_start + n + i]:
                return n + i
        return n + step
    return n


def _legacy_suffix(a, a_end, b, b_end, limit):
    n = 0
    chunk = 256
    while n < limit:
        step = min(chunk, limit - n)
        if a[a_end - n - step: a_end - n] == b[b_end - n - step: b_end - n]:
            n += step
            continue
        for i in range(1, step + 1):
            if a[a_end - n - i] != b[b_end - n - i]:
                return n + i - 1
        return n + step
    return n


def _legacy_expand(new, new_anchor, stored, stored_anchor, window, left_limit):
    if new_anchor < left_limit:
        return None
    if new_anchor + window > len(new) or stored_anchor + window > len(stored):
        return None
    if new[new_anchor: new_anchor + window] != stored[stored_anchor: stored_anchor + window]:
        return None
    left_room = min(new_anchor - left_limit, stored_anchor)
    left = _legacy_suffix(new, new_anchor, stored, stored_anchor, left_room)
    right_room = min(len(new) - (new_anchor + window),
                     len(stored) - (stored_anchor + window))
    right = _legacy_prefix(new, new_anchor + window,
                           stored, stored_anchor + window, right_room)
    return Region(fingerprint=0, offset_new=new_anchor - left,
                  offset_stored=stored_anchor - left,
                  length=left + window + right)


def _legacy_encode_pass(scheme: FingerprintScheme, packets: List[bytes],
                        out: Optional[List[bytes]] = None) -> int:
    """Pre-PR encode pipeline, one packet at a time; returns bytes out.

    Faithful to the original per-packet ``encode()`` loop: the policy
    hooks, stats counters, dependency tracking and per-packet
    ``EncodeResult`` records are part of what the batched pipeline
    restructured, so the oracle pays for them too.  ``out`` collects
    the wire bytes for the byte-identical parity check (pass ``None``
    when timing).
    """
    cache = _LegacyByteCache(16 * 1024 * 1024)
    policy, _ = make_policy_pair("naive")
    stats = EncoderStats()
    window = scheme.window
    total_out = 0
    for counter, payload in enumerate(packets):
        meta = PacketMeta(packet_id=counter, flow=("bench", 0),
                          tcp_seq=counter * MSS, counter=counter)
        stats.packets += 1
        stats.bytes_in += len(payload)
        policy.before_packet(meta, cache)
        anchors = _legacy_anchors(scheme, payload)
        regions: List[Region] = []
        dependencies: Set[int] = set()
        if policy.may_encode(meta):
            pos = 0
            for offset, fingerprint in anchors:
                if offset < pos:
                    continue
                hit = cache.lookup(fingerprint)
                if hit is None:
                    continue
                entry, stored = hit
                if not policy.entry_eligible(entry, meta):
                    stats.ineligible_hits += 1
                    continue
                match = _legacy_expand(payload, offset, stored, entry.offset,
                                       window, pos)
                if match is None:
                    stats.collisions += 1
                    continue
                if match.length <= MIN_REGION_LENGTH:
                    continue
                if not policy.region_acceptable(match.length, len(payload),
                                                meta):
                    stats.ineligible_hits += 1
                    continue
                regions.append(Region(
                    fingerprint=fingerprint, offset_new=match.offset_new,
                    offset_stored=match.offset_stored, length=match.length))
                external = cache.external_id_for(entry.store_id)
                if external is not None:
                    dependencies.add(external)
                pos = match.offset_new + match.length
        if regions:
            data = encode_payload(payload, regions)
            if len(data) >= len(payload) + SHIM_SIZE:
                regions = []
                dependencies = set()
                data = wrap_raw(payload)
        else:
            data = wrap_raw(payload)
        cached = False
        if policy.should_cache_now(meta):
            cache.insert_packet(payload, anchors, tcp_seq=meta.tcp_seq,
                                flow=meta.flow, packet_counter=meta.counter,
                                external_id=meta.packet_id)
            cached = True
        else:
            policy.defer_cache(payload, anchors, meta)
        stats.bytes_out += len(data)
        if regions:
            stats.packets_encoded += 1
            stats.regions += len(regions)
            stats.matched_bytes += sum(r.length for r in regions)
        result = EncodeResult(
            data=data, encoded=bool(regions), bytes_in=len(payload),
            bytes_out=len(data), regions=regions, dependencies=dependencies,
            cached=cached, shim_overhead=SHIM_SIZE)
        total_out += result.bytes_out
        if out is not None:
            out.append(result.data)
    return total_out


# ---------------------------------------------------------------------------
# the live implementation
# ---------------------------------------------------------------------------

def _new_encode_pass(scheme: FingerprintScheme, packets: List[bytes],
                     profiler: Optional[StageProfiler] = None,
                     out: Optional[List[bytes]] = None) -> int:
    cache = ByteCache(16 * 1024 * 1024)
    policy, _ = make_policy_pair("naive")
    encoder = ByteCachingEncoder(scheme, cache, policy)
    encoder.profiler = profiler
    metas = [PacketMeta(packet_id=counter, flow=("bench", 0),
                        tcp_seq=counter * MSS, counter=counter)
             for counter in range(len(packets))]
    total_out = 0
    for result in encoder.encode_batch(packets, metas):
        total_out += result.bytes_out
        if out is not None:
            out.append(result.data)
    return total_out


def _packets() -> List[bytes]:
    """Three-phase workload covering the hot path's regimes.

    1. *fresh*: incompressible traffic — anchor selection and cache
       updates with (almost) no hits; stresses the insert path and the
       candidate prefilter.
    2. *cold*: a corpus object seen for the first time — intra-object
       redundancy; mixed hit/miss region finding.
    3. *warm*: the same object transferred again (the paper's repeated-
       download case) — near-total hits; stresses lookup + expansion.
    """
    rnd = random.Random(0xBC)
    fresh = [rnd.randbytes(MSS) for _ in range(PACKETS // 2)]
    data = corpus_object("file1", seed=3)
    cold = [data[i: i + MSS] for i in range(0, len(data), MSS)][:PACKETS]
    return fresh + cold + cold


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _paired_speedup(legacy_fn, new_fn,
                    rounds: int = ROUNDS) -> Tuple[float, float, float]:
    """Median of per-round legacy/new time ratios.

    The two pipelines are timed back-to-back inside each round, so a
    machine-wide slowdown hits both sides of a ratio equally — far more
    noise-robust than comparing two independently-taken minima.
    Returns ``(speedup, legacy_seconds, new_seconds)`` with the times
    being per-round medians.
    """
    ratios: List[float] = []
    legacy_times: List[float] = []
    new_times: List[float] = []
    legacy_fn()  # warm allocators and workspaces outside the timing
    new_fn()
    for _ in range(rounds):
        started = time.perf_counter()
        legacy_fn()
        legacy_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        new_fn()
        new_elapsed = time.perf_counter() - started
        ratios.append(legacy_elapsed / new_elapsed)
        legacy_times.append(legacy_elapsed)
        new_times.append(new_elapsed)
    return (statistics.median(ratios), statistics.median(legacy_times),
            statistics.median(new_times))


def test_hotpath_speedup(benchmark):
    scheme = FingerprintScheme(window=16, zero_bits=4)
    packets = _packets()

    # Oracle check: byte-identical wire output, packet by packet.
    new_wire: List[bytes] = []
    legacy_wire: List[bytes] = []
    _new_encode_pass(scheme, packets, out=new_wire)
    _legacy_encode_pass(scheme, packets, out=legacy_wire)
    assert new_wire == legacy_wire

    speedup, legacy_time, new_time = _paired_speedup(
        lambda: _legacy_encode_pass(scheme, packets),
        lambda: _new_encode_pass(scheme, packets))

    benchmark.pedantic(lambda: _new_encode_pass(scheme, packets),
                       rounds=3, iterations=1)

    profiler = StageProfiler()
    _new_encode_pass(scheme, packets, profiler=profiler)
    # Record the trajectory point before the gate assert so regressions
    # land in the history too.
    append_bench_history({
        "schema": "bench_hotpath/v1",
        "name": "hotpath",
        "summary": {
            "speedup": speedup,
            "legacy_seconds": legacy_time,
            "new_seconds": new_time,
            "required_speedup": REQUIRED_SPEEDUP,
            "packets": len(packets),
            "rounds": ROUNDS,
            "gate_passed": speedup >= REQUIRED_SPEEDUP,
        },
        "stages": profiler.as_dict(),
    }, "BENCH_hotpath.json")
    print_report(
        "Hot path — batched fingerprint + encode "
        f"({len(packets)} x {MSS} B packets, fresh/cold/warm mix)",
        f"legacy (pre-PR): {legacy_time * 1e3:8.2f} ms\n"
        f"current:         {new_time * 1e3:8.2f} ms\n"
        f"speedup:         {speedup:8.2f}x  (required >= "
        f"{REQUIRED_SPEEDUP}x)\n\n" + profiler.report())

    assert speedup >= REQUIRED_SPEEDUP, (
        f"hot path regressed: {speedup:.2f}x < {REQUIRED_SPEEDUP}x "
        f"(new {new_time * 1e3:.2f} ms vs legacy {legacy_time * 1e3:.2f} ms)")


def test_anchor_selection_speedup(benchmark):
    """Anchor selection alone: AnchorSet vs per-element int() lists."""
    scheme = FingerprintScheme(window=16, zero_bits=4)
    packets = _packets()

    new_pairs = [list(scheme.anchors(p)) for p in packets]
    legacy_pairs = [_legacy_anchors(scheme, p) for p in packets]
    assert new_pairs == legacy_pairs

    def new_pass():
        for payload in packets:
            scheme.anchors(payload).pairs()

    def legacy_pass():
        for payload in packets:
            _legacy_anchors(scheme, payload)

    new_time = _best_of(new_pass)
    legacy_time = _best_of(legacy_pass)
    benchmark.pedantic(new_pass, rounds=3, iterations=1)
    print_report(
        "Anchor selection only",
        f"legacy: {legacy_time * 1e3:.2f} ms   new: {new_time * 1e3:.2f} ms"
        f"   speedup: {legacy_time / new_time:.2f}x")
    # The combined pipeline carries the hard >= 1.5x gate; anchors alone
    # must at minimum not be slower than the list-building version.
    assert new_time <= legacy_time
