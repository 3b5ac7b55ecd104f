"""The benchmark's three workloads: inputs, passes and correctness checks.

Every program input is derived from the single workload seed by
:func:`derive`, so one ``--seed`` fixes the corpus object, the
simulator's loss pattern and the serving population.  A *pass* runs
the workload's ops once and returns their deterministic outcome; the
runner repeats passes for the measured time and requires every pass to
reproduce the first one exactly.
"""

from __future__ import annotations

import gc
import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.metrics.spans import validate_spans
from repro.metrics.telemetry import validate_telemetry
from repro.serving import engine
from repro.serving.sessions import generate_sessions
from repro.workload.catalog import ContentCatalog
from repro.workload.corpus import clear_corpus_cache, corpus_object

from tracer import Capture

POLICIES = ("cache_flush", "tcp_seq", "k_distance")
LOSSES = (0.0, 0.05)


@dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`FULL` is the benchmark, :data:`SMALL` its
    self-test."""

    file_size: int            # bytes of file1; 0 = the 574 KB default
    replicas: int             # (corpus, sim) seed pairs per transfer cell
    users: int
    contents: int
    cache_bytes: int


FULL = Scale(file_size=0, replicas=3, users=200, contents=1000,
             cache_bytes=1 << 20)
SMALL = Scale(file_size=48 * 1024, replicas=2, users=12, contents=40,
              cache_bytes=32 * 1024)


def derive(seed: int, name: str) -> int:
    """A 31-bit program seed for input ``name`` of workload seed ``seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@dataclass
class Pass:
    """What one pass did: op count, failures, its deterministic outcome
    (compared across passes) and the summed wall time of its ops."""

    ops: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    outcome: Dict[str, Any] = field(default_factory=dict)
    gw_data_pkts: int = 0
    wall_s: float = 0.0


class Workload:
    """Base: ``setup`` builds inputs, ``run_pass`` runs the timed ops,
    ``replay`` runs the untimed checks after them, ``summary`` gives the
    gated and the printed-only end-to-end figures."""

    name = ""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.problems: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def replay(self) -> None:
        """Untimed correctness work, done once after the measured
        passes so that it does not count in their peak RSS."""

    def run_pass(self, tracer: Any = None,
                 after_op: Optional[Callable[[], None]] = None) -> Pass:
        """One pass; ``after_op``, if given, is called untimed after
        every op."""
        raise NotImplementedError

    def summary(self, first: Pass) -> Tuple[Dict[str, float],
                                            Dict[str, Tuple[float, str]]]:
        raise NotImplementedError


def _timed(call, *args):
    started = perf_counter()
    result = call(*args)
    return result, perf_counter() - started


def cell_key(replica: int, policy: Optional[str], loss: float) -> str:
    return f"{policy or 'none'}@{loss}#{replica}"


class TransferWorkload(Workload):
    """Fig. 3 transfers of file1: three policies x two loss rates, each
    paired with its no-DRE baseline at the same loss and seed.

    Every cell runs for ``scale.replicas`` (corpus, sim) seed pairs.  At
    5 % loss one transfer's cost depends on its loss pattern (one seed's
    pass did 25 % more work than another's), so a single pair made the
    workload's cost a property of the seed as much as of the program.
    """

    name = "transfer"
    instrumented = False

    def setup(self) -> None:
        self.seeds = [(derive(self.seed, f"corpus:{r}"),
                       derive(self.seed, f"sim:{r}"))
                      for r in range(self.scale.replicas)]
        # The program memoises the objects; the timed passes reuse them.
        clear_corpus_cache()
        for corpus_seed, _ in self.seeds:
            corpus_object("file1", self.scale.file_size, corpus_seed)

    def config(self, replica: int, policy: Optional[str], loss: float,
               observed: bool = False) -> ExperimentConfig:
        corpus_seed, sim_seed = self.seeds[replica]
        return ExperimentConfig(
            corpus="file1", file_size=self.scale.file_size,
            corpus_seed=corpus_seed, seed=sim_seed,
            policy=policy, loss_rate=loss, verify_content=True,
            telemetry=observed, spans=observed, verify=observed)

    def cells(self) -> List[Tuple[int, Optional[str], float]]:
        return [(replica, policy, loss)
                for replica in range(self.scale.replicas)
                for loss in LOSSES for policy in (None,) + POLICIES]

    def _check(self, result, label: str, problems: List[str]) -> bool:
        outcome = result.outcome
        ok = (outcome.completed and not outcome.stalled
              and outcome.content_ok is True)
        if not ok:
            problems.append(
                f"{label}: completed={outcome.completed} "
                f"stalled={outcome.stalled} content_ok={outcome.content_ok}")
        return ok

    def run_pass(self, tracer: Any = None,
                 after_op: Optional[Callable[[], None]] = None) -> Pass:
        done = Pass()
        results = {}
        for op, (replica, policy, loss) in enumerate(self.cells()):
            if tracer is not None:
                tracer.op = op
            # Looked up at call time so an installed tracer is seen.
            result, wall = _timed(
                runner.run_transfer,
                self.config(replica, policy, loss, self.instrumented))
            if tracer is not None:
                tracer.harvest()
            done.wall_s += wall
            done.ops += 1
            # The op's garbage (testbeds hold reference cycles) is
            # collected here, untimed.  Left to the automatic collector,
            # it piled up over several ops, and the peak RSS depended on
            # when a collection ran: 87-102 MB against 58 MB.
            gc.collect()
            if after_op is not None:
                after_op()
            label = f"{policy or 'no-DRE'}@{loss:.0%} replica {replica}"
            if not self._check(result, label, done.problems):
                done.failed += 1
            if result.encoder_stats is not None:
                done.gw_data_pkts += result.encoder_stats.data_packets
            results[cell_key(replica, policy, loss)] = (
                self.cell_outcome(result))
        done.outcome = results
        return done

    @staticmethod
    def cell_outcome(result) -> Dict[str, Any]:
        enc = result.encoder_stats
        return {
            "download_s": result.download_time,
            "link_bytes": result.bytes_on_link,
            "data_pkts": enc.data_packets if enc else 0,
            "encoded_pkts": enc.encoded_packets if enc else 0,
            "bytes_before": enc.bytes_before if enc else 0,
            "bytes_after": enc.bytes_after if enc else 0,
        }

    def summary(self, first: Pass):
        return ratio_summary(first.outcome, first.outcome,
                             self.scale.replicas)


def ratio_summary(cells: Dict[str, Any], baselines: Dict[str, Any],
                  replicas: int
                  ) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str]]]:
    """Fig. 10/11 ratios and gateway ratios of the DRE cells, each
    against the no-DRE baseline at its loss rate and seeds."""
    keys = [(r, policy, loss) for r in range(replicas)
            for policy in POLICIES for loss in LOSSES]
    dre = [cells[cell_key(r, policy, loss)] for r, policy, loss in keys]
    base = [baselines[cell_key(r, None, loss)] for r, _, loss in keys]
    gated = {
        "link_bytes_ratio": (sum(c["link_bytes"] for c in dre)
                             / sum(c["link_bytes"] for c in base)),
        "hit_ratio": (sum(c["encoded_pkts"] for c in dre)
                      / sum(c["data_pkts"] for c in dre)),
        "bytes_saved_ratio": 1.0 - (sum(c["bytes_after"] for c in dre)
                                    / sum(c["bytes_before"] for c in dre)),
    }
    printed = {
        "download_ratio": (sum(c["download_s"] for c in dre)
                           / sum(c["download_s"] for c in base), "ratio"),
    }
    return gated, printed


class ObservedWorkload(TransferWorkload):
    """The six DRE transfer cells with telemetry, spans (every flow
    sampled) and the verification oracles all on."""

    name = "observed"
    instrumented = True

    def cells(self) -> List[Tuple[int, Optional[str], float]]:
        return [cell for cell in super().cells() if cell[1] is not None]

    def replay(self) -> None:
        # The plain cells and their baselines, untimed: every observed
        # cell must match its plain cell on download time and link bytes.
        self.plain = {}
        for replica, policy, loss in super().cells():
            result = runner.run_transfer(self.config(replica, policy, loss))
            label = f"plain {policy or 'no-DRE'}@{loss:.0%} replica {replica}"
            self._check(result, label, self.problems)
            self.plain[cell_key(replica, policy, loss)] = (
                self.cell_outcome(result))

    def _check(self, result, label: str, problems: List[str]) -> bool:
        ok = super()._check(result, label, problems)
        if result.spans is not None:
            try:
                validate_spans(result.spans)
                validate_telemetry(result.telemetry)
            except ValueError as exc:
                problems.append(f"{label}: export invalid: {exc}")
                ok = False
        return ok

    def summary(self, first: Pass):
        for key, cell in first.outcome.items():
            plain = self.plain[key]
            for name in ("download_s", "link_bytes"):
                if cell[name] != plain[name]:
                    self.problems.append(
                        f"observed {key} {name}={cell[name]} differs from "
                        f"the uninstrumented cell's {plain[name]}")
        return ratio_summary(first.outcome, self.plain, self.scale.replicas)


class ServingWorkload(Workload):
    """One serving population through an 8-shard shared cache."""

    name = "serving"

    def spec(self, **updates: Any) -> "engine.ServingSpec":
        fields = dict(
            users=self.scale.users, n_contents=self.scale.contents,
            alpha=0.8, policy="k_distance", cache_shards=8,
            cache_bytes=self.scale.cache_bytes, loss_rate=0.01,
            seed=derive(self.seed, "serving"))
        fields.update(updates)
        return engine.ServingSpec(**fields)

    def setup(self) -> None:
        spec = self.spec()
        catalog = ContentCatalog(spec.catalog_spec())
        self.schedule = generate_sessions(spec.session_spec(), catalog)

    def replay(self) -> None:
        # Untimed: a replay with content checks and the shard-invariant
        # oracle armed, and a no-DRE replay for the link-bytes ratio.
        # Only the figures are kept, not the testbeds.
        with Capture() as seen:
            self.checked = engine.run_serving(self.spec(verify=True))
        gateways = seen.testbeds[-1].gateways
        self.checked_link = bottleneck_bytes(seen.testbeds[-1])
        self.checked_flushes = (gateways.encoder.cache.flushes
                                + gateways.decoder.cache.flushes)
        self.checked_downloads = [o.duration for o in seen.outcomes]
        with Capture() as seen:
            baseline = engine.run_serving(self.spec(policy=None))
        self.baseline_link = bottleneck_bytes(seen.testbeds[-1])
        self.baseline_downloads = [o.duration for o in seen.outcomes]
        for label, report in (("verified replay", self.checked),
                              ("no-DRE replay", baseline)):
            self.problems.extend(f"{label}: {p}"
                                 for p in request_problems(report))
        if self.checked.get("oracle_checks", 0) <= 0:
            self.problems.append("verified replay ran no oracle checks")
        if len(self.schedule) != self.checked["requests"]["total"]:
            self.problems.append("generated schedule and run disagree on "
                                 "the request count")

    def run_pass(self, tracer: Any = None,
                 after_op: Optional[Callable[[], None]] = None) -> Pass:
        done = Pass()
        # The capture costs one list append per testbed and per request.
        with Capture() as seen:
            report, done.wall_s = _timed(engine.run_serving, self.spec())
        if tracer is not None:
            tracer.harvest()
        done.ops = report["requests"]["total"]
        bad = request_problems(report)
        done.problems.extend(bad)
        done.failed = done.ops - report["requests"]["completed"]
        if bad and not done.failed:
            done.failed = 1
        done.outcome = engine.deterministic_report(report)
        done.gw_data_pkts = (
            seen.testbeds[-1].gateways.encoder.stats.data_packets)
        if after_op is not None:
            after_op()
        return done

    def summary(self, first: Pass):
        report = first.outcome
        for block in ("requests", "steady", "cache"):
            if report[block] != self.checked[block]:
                self.problems.append(
                    f"timed run's {block} block differs from the "
                    f"verified replay's")
        if report["cache"]["evictions"] <= 0:
            self.problems.append("serving cache recorded no evictions: "
                                 "the cache budget no longer binds")
        warmup = report["requests"]["warmup"]
        steady = [d for d in self.checked_downloads[warmup:]
                  if d is not None]
        if nearest_rank(steady, 0.5) != report["steady"]["p50_download_s"]:
            self.problems.append("captured downloads disagree with the "
                                 "report's steady p50")
        gated = {
            "link_bytes_ratio": self.checked_link / self.baseline_link,
            "hit_ratio": report["steady"]["hit_ratio"],
            "bytes_saved_ratio": report["steady"]["bytes_saved_ratio"],
        }
        printed = {
            "download_ratio": (sum(filter(None, self.checked_downloads))
                               / sum(filter(None, self.baseline_downloads)),
                               "ratio"),
            "dl_p50_s": (nearest_rank(steady, 0.50), "sim_s"),
            "dl_p95_s": (nearest_rank(steady, 0.95), "sim_s"),
            "dl_samples": (len(steady), "count"),
            "cache.evictions": (report["cache"]["evictions"], "count"),
            "cache.flushes": (self.checked_flushes, "count"),
            "cache.occupancy": (report["cache"]["pressure"], "ratio"),
        }
        return gated, printed


def request_problems(report: Dict[str, Any]) -> List[str]:
    requests = report["requests"]
    problems = []
    for key in ("timeouts", "stalled", "unfinished", "content_mismatches"):
        if requests[key]:
            problems.append(f"{requests[key]} requests {key}")
    if requests["completed"] != requests["total"]:
        problems.append(f"{requests['total'] - requests['completed']} of "
                        f"{requests['total']} requests did not complete")
    return problems


def bottleneck_bytes(testbed: Any) -> int:
    return (testbed.bottleneck_forward.stats.bytes_offered
            + testbed.bottleneck_reverse.stats.bytes_offered)


WORKLOADS = {cls.name: cls for cls in (TransferWorkload, ServingWorkload,
                                       ObservedWorkload)}
