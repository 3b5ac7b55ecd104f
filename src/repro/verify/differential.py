"""Differential runner: paired executions that must agree.

Six comparisons, each a pair of runs differing in exactly one
implementation choice that must be behaviour-preserving:

* **fingerprinters** — the vectorised polynomial fingerprinter against
  the GF(2) Rabin reference.  The two schemes select different anchor
  *values* by construction (see :mod:`repro.core.polyhash`), so the raw
  wire bytes legitimately differ; what must be bit-identical is the
  *reconstructed application stream* leaving the decoder — byte caching
  is transparent or it is broken.  Both runs use zero loss so every
  packet round-trips through encode→wire→decode.
* **sweep parallelism** — the same sweep executed serially and on a
  process pool must produce equal ``TransferResult.to_dict()`` lists
  cell-for-cell (the engine's bit-identical-aggregation contract).
* **resilience layer** — arming epochs/heartbeats/resync under *zero
  faults* must not change the delivered stream (the epoch stamp rides
  in the shim; heartbeats share the bottleneck but cannot perturb
  correctness).
* **batched encoder** — :meth:`ByteCachingEncoder.encode_batch` (the
  fused whole-window path) against a per-packet ``encode`` loop: the
  wire bytes must match packet for packet.
* **table implementations** — the ring fingerprint table against the
  reference dict table, same packet sequence: byte-identical wire
  output.
* **multiflow parallelism** — independent flows run serially and
  spread over a process pool must merge to the same per-flow link
  byte counts (see :func:`repro.experiments.multiflow.run_parallel_flows`).

Each comparison returns a :class:`DifferentialResult`; ``repro verify``
runs all of them and exits non-zero on any mismatch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..app.transfer import FileClient, FileServer, TransferOutcome
from ..experiments.config import ExperimentConfig
from ..experiments.runner import FILE_NAME, SERVER_ADDR, build_testbed
from ..workload.corpus import corpus_object


@dataclass
class DifferentialResult:
    """Outcome of one paired comparison."""

    name: str
    matched: bool
    detail: str
    left_digest: str = ""
    right_digest: str = ""

    def __str__(self) -> str:
        status = "ok" if self.matched else "MISMATCH"
        return f"{self.name}: {status} — {self.detail}"


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def run_captured(config: ExperimentConfig) -> Tuple[TransferOutcome, bytes]:
    """One transfer, capturing the delivered application stream."""
    testbed = build_testbed(config)
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    FileServer(testbed.server_stack, {FILE_NAME: data})
    client = FileClient(testbed.client_stack, testbed.sim)
    chunks: List[bytes] = []
    outcome = client.fetch(SERVER_ADDR, FILE_NAME, expected_size=len(data),
                           on_data=chunks.append,
                           on_done=lambda _o: testbed.sim.stop())
    testbed.sim.run(until=config.time_limit)
    return outcome, b"".join(chunks)


def compare_fingerprinters(file_size: int = 40 * 1460,
                           policy: str = "cache_flush",
                           seed: int = 11) -> DifferentialResult:
    """poly vs rabin: the delivered stream must be byte-identical."""
    base = ExperimentConfig(policy=policy, file_size=file_size,
                            loss_rate=0.0, seed=seed)
    source = corpus_object(base.corpus, base.file_size, base.corpus_seed)
    streams = {}
    for kind in ("poly", "rabin"):
        outcome, stream = run_captured(base.with_updates(
            fingerprint_kind=kind))
        if not outcome.completed:
            return DifferentialResult(
                "fingerprinters", False,
                f"{kind} run did not complete "
                f"({outcome.bytes_received}/{outcome.expected_size} bytes)")
        streams[kind] = stream
    matched = (streams["poly"] == streams["rabin"] == source)
    detail = (f"poly and rabin delivered identical {len(source):,}-byte "
              f"streams (= source object)" if matched else
              "delivered streams diverge between fingerprinters")
    return DifferentialResult("fingerprinters", matched, detail,
                              _digest(streams["poly"]),
                              _digest(streams["rabin"]))


def compare_sweep_parallelism(losses: Tuple[float, ...] = (0.0, 0.02),
                              policies: Tuple[str, ...] = ("cache_flush",
                                                           "tcp_seq"),
                              file_size: int = 30 * 1460,
                              seed: int = 11,
                              workers: int = 2) -> DifferentialResult:
    """Serial vs process-pool sweep: cell results must be equal dicts."""
    from ..experiments.sweep import SweepSpec, run_sweep

    def spec() -> SweepSpec:
        return SweepSpec(
            base=ExperimentConfig(file_size=file_size),
            grid={"policy": list(policies), "loss_rate": list(losses)},
            seeds=(seed,), paired_baseline=True)

    serial = run_sweep(spec(), workers=None)
    parallel = run_sweep(spec(), workers=workers)
    serial_cells = [cell.result.to_dict() for cell in serial]
    parallel_cells = [cell.result.to_dict() for cell in parallel]
    matched = serial_cells == parallel_cells
    mismatches = sum(1 for left, right in zip(serial_cells, parallel_cells)
                     if left != right)
    detail = (f"{len(serial_cells)} cells bit-identical across "
              f"serial and {workers}-worker runs" if matched else
              f"{mismatches}/{len(serial_cells)} cells differ between "
              f"serial and parallel execution")
    return DifferentialResult(
        "sweep-parallelism", matched, detail,
        _digest(repr(serial_cells).encode()),
        _digest(repr(parallel_cells).encode()))


def compare_resilience(file_size: int = 40 * 1460,
                       policy: str = "cache_flush",
                       seed: int = 11) -> DifferentialResult:
    """Resilience on vs off, zero faults: same delivered stream."""
    base = ExperimentConfig(policy=policy, file_size=file_size,
                            loss_rate=0.0, seed=seed)
    source = corpus_object(base.corpus, base.file_size, base.corpus_seed)
    streams = {}
    for armed in (False, True):
        outcome, stream = run_captured(base.with_updates(resilience=armed))
        label = "resilience" if armed else "baseline"
        if not outcome.completed:
            return DifferentialResult(
                "resilience", False,
                f"{label} run did not complete "
                f"({outcome.bytes_received}/{outcome.expected_size} bytes)")
        streams[armed] = stream
    matched = (streams[False] == streams[True] == source)
    detail = (f"armed and unarmed runs delivered identical "
              f"{len(source):,}-byte streams under zero faults" if matched
              else "resilience layer changed the delivered stream")
    return DifferentialResult("resilience", matched, detail,
                              _digest(streams[False]),
                              _digest(streams[True]))


def _offline_packets(n_packets: int, mss: int = 1460) -> List[bytes]:
    """Three-phase workload (fresh / cold / warm) for offline passes.

    Mirrors the hot-path bench's regimes: incompressible traffic, a
    first corpus transfer, and a fully redundant repeat.
    """
    import random

    rnd = random.Random(0xBC)
    fresh = [rnd.randbytes(mss) for _ in range(max(1, n_packets // 2))]
    data = corpus_object("file1", seed=3)
    cold = [data[index: index + mss]
            for index in range(0, len(data), mss)][:n_packets]
    return fresh + cold + cold


def _offline_encode(packets: List[bytes], *, batched: bool,
                    table_kind: str = "ring") -> List[bytes]:
    """Wire bytes of one offline encoder pass over ``packets``."""
    from ..core.cache import ByteCache
    from ..core.encoder import ByteCachingEncoder
    from ..core.fingerprint import FingerprintScheme
    from ..core.policies import PacketMeta, make_policy_pair

    scheme = FingerprintScheme(window=16, zero_bits=4)
    policy, _ = make_policy_pair("naive")
    encoder = ByteCachingEncoder(
        scheme, ByteCache(16 * 1024 * 1024, table_kind=table_kind), policy)
    metas = [PacketMeta(packet_id=counter, flow=("diff", 0),
                        tcp_seq=counter * 1460, counter=counter)
             for counter in range(len(packets))]
    if batched:
        return [result.data
                for result in encoder.encode_batch(packets, metas)]
    return [encoder.encode(payload, meta).data
            for payload, meta in zip(packets, metas)]


def compare_batched_encoder(n_packets: int = 96) -> DifferentialResult:
    """encode_batch (fused window path) vs a per-packet encode loop."""
    packets = _offline_packets(n_packets)
    per_packet = _offline_encode(packets, batched=False)
    batched = _offline_encode(packets, batched=True)
    matched = per_packet == batched
    mismatches = sum(1 for left, right in zip(per_packet, batched)
                     if left != right)
    detail = (f"{len(packets)} packets byte-identical between encode() "
              f"and encode_batch()" if matched else
              f"{mismatches}/{len(packets)} packets differ between "
              f"per-packet and batched encoding")
    return DifferentialResult(
        "batched-encoder", matched, detail,
        _digest(b"".join(per_packet)), _digest(b"".join(batched)))


def compare_table_impls(n_packets: int = 96) -> DifferentialResult:
    """Ring fingerprint table vs the reference dict table."""
    packets = _offline_packets(n_packets)
    ring = _offline_encode(packets, batched=True, table_kind="ring")
    reference = _offline_encode(packets, batched=True, table_kind="dict")
    matched = ring == reference
    mismatches = sum(1 for left, right in zip(ring, reference)
                     if left != right)
    detail = (f"{len(packets)} packets byte-identical between ring and "
              f"dict tables" if matched else
              f"{mismatches}/{len(packets)} packets differ between "
              f"table implementations")
    return DifferentialResult(
        "table-impls", matched, detail,
        _digest(b"".join(ring)), _digest(b"".join(reference)))


def compare_multiflow_parallelism(n_flows: int = 3,
                                  file_size: int = 30 * 1460,
                                  workers: int = 2) -> DifferentialResult:
    """Serial vs process-pool multiflow: identical per-flow results."""
    from ..experiments.multiflow import run_parallel_flows

    configs = [ExperimentConfig(file_size=file_size,
                                corpus_seed=3 + index, seed=11 + index)
               for index in range(n_flows)]
    serial = run_parallel_flows(configs)
    parallel = run_parallel_flows(configs, workers=workers)
    serial_bytes = [flow.per_fetch_link_bytes for flow in serial.flows]
    parallel_bytes = [flow.per_fetch_link_bytes for flow in parallel.flows]
    matched = (serial_bytes == parallel_bytes
               and serial.total_bytes_on_link == parallel.total_bytes_on_link
               and serial.all_completed and parallel.all_completed)
    detail = (f"{n_flows} flows merge bit-identically across serial and "
              f"{workers}-worker execution" if matched else
              f"flow results diverge between serial and parallel "
              f"execution ({serial_bytes} vs {parallel_bytes})")
    return DifferentialResult(
        "multiflow-parallelism", matched, detail,
        _digest(repr(serial_bytes).encode()),
        _digest(repr(parallel_bytes).encode()))


def run_differential(scale: str = "smoke",
                     log: Optional[Callable[[str], None]] = None
                     ) -> List[DifferentialResult]:
    """All six comparisons; ``scale`` picks the workload size.

    ``smoke`` uses small objects (seconds, used by the test suite);
    ``headline`` uses the paper-scale object of the headline scenario
    for the fingerprinter/resilience pairs and a wider sweep grid
    (the CI ``verify-smoke`` job).
    """
    if scale not in ("smoke", "headline"):
        raise ValueError(f"unknown scale {scale!r}")
    if scale == "headline":
        # file1's corpus default is the paper's ~574 KB object.  The
        # Rabin reference fingerprinter is pure Python, so this is the
        # expensive configuration — CI-sized, not test-sized.
        pairs = dict(file_size=0)
        sweep = dict(losses=(0.0, 0.02, 0.05), file_size=60 * 1460)
        offline = dict(n_packets=384)
        multiflow = dict(n_flows=4, file_size=60 * 1460)
    else:
        pairs = dict(file_size=40 * 1460)
        sweep = dict(losses=(0.0, 0.02), file_size=30 * 1460)
        offline = dict(n_packets=96)
        multiflow = dict(n_flows=3, file_size=30 * 1460)

    results = []
    for runner in (
            lambda: compare_fingerprinters(**pairs),
            lambda: compare_sweep_parallelism(**sweep),
            lambda: compare_resilience(**pairs),
            lambda: compare_batched_encoder(**offline),
            lambda: compare_table_impls(**offline),
            lambda: compare_multiflow_parallelism(**multiflow)):
        result = runner()
        if log is not None:
            log(str(result))
        results.append(result)
    return results
