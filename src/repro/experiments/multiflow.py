"""Multi-connection experiments: inter-flow redundancy and cross-
connection cache poisoning.

Two claims of the paper live here:

* §I: byte caching "eliminates redundancy both intra-flow and
  inter-flows" — a second client fetching overlapping content through
  the same gateway pair should ride the first client's cache;
* §IV-C: "a packet loss may cause the desynchronization between the
  encoder's and decoder's caches, and, not only one TCP connection, but
  all subsequent connections going through the encoder and decoder may
  get affected" — under the naive policy, a stall on one connection
  leaves poisoned state behind for the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from ..app.transfer import FileClient, FileServer, TransferOutcome
from ..metrics.profiling import StageProfiler
from ..workload.corpus import corpus_object
from .config import ExperimentConfig
from .runner import FILE_NAME, SERVER_ADDR, build_testbed


@dataclass
class MultiFlowResult:
    """Outcomes of several sequential or concurrent fetches."""

    outcomes: List[TransferOutcome]
    bytes_on_link: int
    per_fetch_link_bytes: List[int] = field(default_factory=list)

    @property
    def all_completed(self) -> bool:
        return all(outcome.completed for outcome in self.outcomes)


def run_sequential_fetches(config: ExperimentConfig, n_fetches: int = 2,
                           same_object: bool = True,
                           fetch_timeout: float = 60.0) -> MultiFlowResult:
    """One client fetches ``n_fetches`` times over fresh connections.

    With ``same_object`` the later fetches are fully redundant against
    the gateway caches (inter-flow redundancy in its purest form).  A
    fetch that neither completes nor dies within ``fetch_timeout``
    seconds is abandoned and the next one starts — the §IV-C user who
    gives up and retries.
    """
    testbed = build_testbed(config)
    sim = testbed.sim
    objects = {}
    for index in range(n_fetches):
        name = FILE_NAME if same_object else f"{FILE_NAME}-{index}"
        objects[name] = corpus_object(config.corpus, config.file_size,
                                      config.corpus_seed
                                      + (0 if same_object else index))
    FileServer(testbed.server_stack, objects)
    client_app = FileClient(testbed.client_stack, sim)

    outcomes: List[TransferOutcome] = []
    per_fetch_bytes: List[int] = []

    def fetch(index: int) -> None:
        name = FILE_NAME if same_object else f"{FILE_NAME}-{index}"
        before = testbed.bottleneck_forward.stats.bytes_offered
        advanced = []

        def advance() -> None:
            if advanced:
                return
            advanced.append(True)
            per_fetch_bytes.append(
                testbed.bottleneck_forward.stats.bytes_offered - before)
            if index + 1 < n_fetches:
                # Small gap between connections, as a user would pause.
                sim.after(0.05, fetch, index + 1)
            else:
                sim.stop()

        outcomes.append(client_app.fetch(
            SERVER_ADDR, name, expected_size=len(objects[name]),
            expected_content=objects[name],
            on_done=lambda _outcome: advance()))
        sim.after(fetch_timeout, advance)

    fetch(0)
    sim.run(until=config.time_limit)
    return MultiFlowResult(outcomes=outcomes,
                           bytes_on_link=testbed.bottleneck_forward.stats.bytes_offered,
                           per_fetch_link_bytes=per_fetch_bytes)


def run_version_update(config: ExperimentConfig, size: int = 120 * 1460,
                       change_fraction: float = 0.08) -> MultiFlowResult:
    """Fetch v1, then fetch v2 of the same artifact (§I "modified
    content"): the second transfer should cost roughly the changed
    fraction plus encoding overhead."""
    from ..workload.objects import generate_software_versions

    testbed = build_testbed(config)
    sim = testbed.sim
    v1, v2 = generate_software_versions(size, n_versions=2,
                                        change_fraction=change_fraction,
                                        seed=config.corpus_seed)
    FileServer(testbed.server_stack, {"v1": v1, "v2": v2})
    client_app = FileClient(testbed.client_stack, sim)

    outcomes: List[TransferOutcome] = []
    per_fetch_bytes: List[int] = []

    def fetch(name: str, blob: bytes, then=None) -> None:
        before = testbed.bottleneck_forward.stats.bytes_offered

        def done(_outcome: TransferOutcome) -> None:
            per_fetch_bytes.append(
                testbed.bottleneck_forward.stats.bytes_offered - before)
            if then is not None:
                sim.after(0.05, then)
            else:
                sim.stop()

        outcomes.append(client_app.fetch(
            SERVER_ADDR, name, expected_size=len(blob),
            expected_content=blob, on_done=done))

    fetch("v1", v1, then=lambda: fetch("v2", v2))
    sim.run(until=config.time_limit)
    return MultiFlowResult(outcomes=outcomes,
                           bytes_on_link=testbed.bottleneck_forward.stats.bytes_offered,
                           per_fetch_link_bytes=per_fetch_bytes)


def run_concurrent_fetches(config: ExperimentConfig,
                           n_clients: int = 2) -> MultiFlowResult:
    """``n_clients`` connections fetch the same object simultaneously.

    All connections share the gateway pair, so their packets interleave
    in the caches — the inter-flow setting of §I (and the cross-flow
    eligibility question for the TCP-seq policy).
    """
    testbed = build_testbed(config)
    sim = testbed.sim
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    FileServer(testbed.server_stack, {FILE_NAME: data})
    client_app = FileClient(testbed.client_stack, sim)

    outcomes: List[TransferOutcome] = []
    finished = []

    def done(outcome: TransferOutcome) -> None:
        finished.append(outcome)
        if len(finished) == n_clients:
            sim.stop()

    for index in range(n_clients):
        sim.after(0.002 * index, lambda: outcomes.append(client_app.fetch(
            SERVER_ADDR, FILE_NAME, expected_size=len(data),
            expected_content=data, on_done=done)))

    sim.run(until=config.time_limit)
    return MultiFlowResult(
        outcomes=outcomes,
        bytes_on_link=testbed.bottleneck_forward.stats.bytes_offered)


# ---------------------------------------------------------------------------
# Flow-parallel execution: independent flows spread over a process pool
# ---------------------------------------------------------------------------

@dataclass
class MultiFlowSetResult:
    """Deterministic merge of independently executed flow runs.

    ``flows[i]`` is the result of ``configs[i]`` regardless of worker
    count or completion order — each flow runs its own testbed and
    simulator with seeds derived only from its config, so the merged
    result of a parallel run is bit-identical to the serial one.
    """

    flows: List[MultiFlowResult]
    total_bytes_on_link: int
    workers_used: int

    @property
    def all_completed(self) -> bool:
        return all(flow.all_completed for flow in self.flows)

    @property
    def per_flow_link_bytes(self) -> List[int]:
        return [flow.bytes_on_link for flow in self.flows]


def _run_flow_job(job: Tuple[int, ExperimentConfig, int]
                  ) -> Tuple[int, MultiFlowResult]:
    """Pool worker: run one flow's transfer in its own simulator.

    Module-level so it pickles into a ``ProcessPoolExecutor``; the
    index rides along so the merge can re-establish submission order.
    """
    index, config, n_fetches = job
    return index, run_sequential_fetches(config, n_fetches=n_fetches)


def run_parallel_flows(configs: Sequence[ExperimentConfig], *,
                       n_fetches: int = 1,
                       workers: Optional[int] = None,
                       profiler: Optional[StageProfiler] = None
                       ) -> MultiFlowSetResult:
    """Run independent flows, optionally spread across a process pool.

    Flows here are *independent* in the strict sense: each config gets
    its own testbed (gateway pair, caches, simulator), which is what
    makes splitting them across processes sound — there is no shared
    mutable state to race on.  With ``workers`` ``None``/``<=1`` everything runs in this
    process; otherwise the flows fan out over
    :func:`repro.experiments.sweep.parallel_map` and are merged back in
    submission-index order, so the output is byte-identical either way
    (the differential runner asserts exactly that).

    ``profiler``, when given, accumulates the recombination cost under
    the ``merge`` stage.
    """
    from .sweep import parallel_map

    jobs = [(index, config, n_fetches)
            for index, config in enumerate(configs)]
    indexed = parallel_map(_run_flow_job, jobs, workers=workers)
    started = perf_counter() if profiler is not None else 0.0
    # Deterministic merge: order by submission index, never by
    # completion order (parallel_map preserves order today, but the
    # merge must not depend on that detail).
    flows = [flow for _, flow in sorted(indexed, key=lambda pair: pair[0])]
    merged = MultiFlowSetResult(
        flows=flows,
        total_bytes_on_link=sum(flow.bytes_on_link for flow in flows),
        workers_used=1 if workers is None else max(1, workers))
    if profiler is not None:
        profiler.add("merge", perf_counter() - started)
    return merged
