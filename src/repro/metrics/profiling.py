"""Per-stage wall-clock profiling of the simulation hot path.

A :class:`StageProfiler` accumulates (total seconds, call count) per
named stage.  The instrumented code — the encoder/decoder
(``batch_fingerprint``, ``fingerprint``, ``table_probe``,
``region_expand``, ``wire_pack``, ``cache_ops``), the parallel-flow
recombiner (``merge``) and the simulator run loop
(``event_dispatch``) — holds an optional profiler reference:
when it is ``None`` (the default) each hook costs one attribute load
and an identity check, so profiling is effectively free when off.

Enable it per run with ``ExperimentConfig(profile=True)``; the result
lands in :attr:`repro.metrics.collectors.TransferResult.profile` and in
``benchmarks/bench_hotpath.py``'s stage breakdown.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, Optional, Tuple

#: Canonical stage names, in pipeline order (unknown stages are allowed;
#: these are the ones the built-in instrumentation emits).
#: ``batch_fingerprint`` is the vectorised whole-window sweep of
#: ``encode_batch``; ``fingerprint`` the per-packet path; ``merge`` the
#: deterministic recombination of results from parallel flows.
STAGES = ("batch_fingerprint", "fingerprint", "table_probe",
          "region_expand", "wire_pack", "cache_ops", "merge",
          "event_dispatch")


class StageProfiler:
    """Accumulates per-stage wall-clock time and call counts."""

    __slots__ = ("totals", "counts")

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, stage: str, elapsed: float) -> None:
        """Record one timed section of ``stage``."""
        totals = self.totals
        if stage in totals:
            totals[stage] += elapsed
            self.counts[stage] += 1
        else:
            totals[stage] = elapsed
            self.counts[stage] = 1

    def time(self, stage: str) -> "_StageTimer":
        """Context manager timing a block (for non-hot-path callers)."""
        return _StageTimer(self, stage)

    def merge(self, other: "StageProfiler") -> None:
        """Fold another profiler's accumulations into this one."""
        for stage, total in other.totals.items():
            if stage in self.totals:
                self.totals[stage] += total
                self.counts[stage] += other.counts[stage]
            else:
                self.totals[stage] = total
                self.counts[stage] = other.counts[stage]

    def total(self, stage: str) -> float:
        return self.totals.get(stage, 0.0)

    def count(self, stage: str) -> int:
        return self.counts.get(stage, 0)

    def stages(self) -> Iterator[Tuple[str, float, int]]:
        """(stage, total seconds, calls), canonical stages first."""
        seen = set()
        for stage in STAGES:
            if stage in self.totals:
                seen.add(stage)
                yield stage, self.totals[stage], self.counts[stage]
        for stage in sorted(self.totals):
            if stage not in seen:
                yield stage, self.totals[stage], self.counts[stage]

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly snapshot: stage -> {seconds, calls}."""
        return {stage: {"seconds": total, "calls": float(calls)}
                for stage, total, calls in self.stages()}

    def report(self) -> str:
        """Small fixed-width table of the stage breakdown."""
        lines = [f"{'stage':<16} {'seconds':>10} {'calls':>10} {'us/call':>10}"]
        for stage, total, calls in self.stages():
            per_call = total / calls * 1e6 if calls else 0.0
            lines.append(f"{stage:<16} {total:>10.4f} {calls:>10d} "
                         f"{per_call:>10.2f}")
        return "\n".join(lines)


class _StageTimer:
    """Context manager produced by :meth:`StageProfiler.time`."""

    __slots__ = ("_profiler", "_stage", "_started")

    def __init__(self, profiler: StageProfiler, stage: str):
        self._profiler = profiler
        self._stage = stage
        self._started = 0.0

    def __enter__(self) -> "_StageTimer":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler.add(self._stage, perf_counter() - self._started)


def profiler_if(enabled: bool) -> Optional[StageProfiler]:
    """``StageProfiler()`` when enabled, else ``None`` (the fast path)."""
    return StageProfiler() if enabled else None
