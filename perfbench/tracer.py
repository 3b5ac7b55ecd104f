"""Outside-in layer tracer for the benchmark.

The program under test carries no benchmark spans of its own.  This
module times it from the outside: while a :class:`LayerTracer` is
installed, each public function listed in :data:`TARGETS` is replaced
by a wrapper that records a span (name, start, end, parent, op id) and
charges the span's *self* time -- its duration minus the time covered
by spans that started inside it -- to the function's layer.  The
wrappers exist only between :meth:`LayerTracer.install` and
:meth:`LayerTracer.uninstall`; untimed and untraced runs see the
original functions.

Functions are patched where the program looks them up: methods on
their class, module-level functions in the namespace of the module that
calls them (``encode_payload`` is timed as ``repro.core.encoder``
binds it, ``corpus_object`` as ``repro.experiments.runner`` binds it).
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Tuple)

#: Layer order used for printing; every layer reports calls/self/share.
LAYERS = (
    "experiments", "workload", "sim.engine", "sim.link", "net.tcp",
    "gateway", "core.fingerprint", "core.encoder", "core.cache",
    "core.wire", "core.decoder", "serving", "metrics", "verify",
)

_CACHE_METHODS = ("insert_packet", "lookup", "lookup_view",
                  "lookup_previous", "flush", "evict_fraction",
                  "mark_unusable")
_SPAN_METHODS = ("begin", "begin_stage", "end", "end_stage", "open",
                 "event", "child_event", "packet_begin", "packet_end",
                 "packet_event", "link_deps", "link_begin",
                 "link_annotate", "link_end", "note_retransmit",
                 "fault_begin", "fault_end")
_VERIFY_HOOKS = ("on_packet", "on_region", "on_undecodable", "on_stale",
                 "on_deliver", "check_coherence", "finalize")

#: (layer, "module" or "module:Class", attribute) for every timed
#: function.  A counter hook, if any, is looked up in ``_HOOKS``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments", "repro.experiments.runner", "run_transfer"),
    ("experiments", "repro.experiments.runner", "build_testbed"),
    ("experiments", "repro.experiments.runner", "collect_result"),
    ("experiments", "repro.serving.engine", "build_testbed"),
    ("workload", "repro.experiments.runner", "corpus_object"),
    ("workload", "repro.workload.catalog:ContentCatalog", "object_bytes"),
    ("workload", "repro.serving.engine", "generate_sessions"),
    ("sim.engine", "repro.sim.engine:Simulator", "run"),
    ("sim.link", "repro.sim.link:Link", "send"),
    ("net.tcp", "repro.net.tcp.connection:TCPConnection", "segment_arrived"),
    ("net.tcp", "repro.net.tcp.connection:TCPConnection", "send"),
    ("net.tcp", "repro.net.tcp.stack:TCPStack", "connect"),
    ("net.tcp", "repro.net.tcp.stack:TCPStack", "release"),
    ("gateway", "repro.gateway.middlebox:EncoderGateway", "process"),
    ("gateway", "repro.gateway.middlebox:DecoderGateway", "process"),
    ("core.fingerprint", "repro.core.fingerprint:FingerprintScheme",
     "anchors"),
    ("core.fingerprint", "repro.core.fingerprint:FingerprintScheme",
     "batch_anchors"),
    ("core.encoder", "repro.core.encoder:ByteCachingEncoder", "encode"),
    *(("core.cache", "repro.core.cache:ByteCache", name)
      for name in _CACHE_METHODS),
    *(("core.cache", "repro.core.shardcache:ShardedByteCache", name)
      for name in _CACHE_METHODS),
    ("core.wire", "repro.core.encoder", "encode_payload"),
    ("core.wire", "repro.core.encoder", "wrap_raw"),
    ("core.wire", "repro.core.decoder", "parse_payload"),
    ("core.decoder", "repro.core.decoder:ByteCachingDecoder", "decode"),
    ("serving", "repro.serving.engine", "run_serving"),
    ("serving", "repro.serving.engine:FlowPool", "sweep"),
    *(("metrics", "repro.metrics.spans:SpanRecorder", name)
      for name in _SPAN_METHODS),
    ("metrics", "repro.metrics.telemetry:TelemetrySampler", "sample_once"),
    ("metrics", "repro.metrics.telemetry:FlightRecorder", "record"),
    *(("verify", "repro.verify.oracles:VerificationHarness", name)
      for name in _VERIFY_HOOKS),
)

#: Every counter.  Hooks count some while the calls run;
#: :meth:`LayerTracer.harvest` reads the rest off the program's objects.
COUNTERS = (
    "workload.bytes", "sim.events", "link.pkts", "link.lost",
    "link.queue_drops", "tcp.conns", "tcp.retransmits", "tcp.timeouts",
    "tcp.pool_high_water", "gw.data_pkts", "gw.encoded_pkts",
    "gw.decoded_ok", "gw.undecodable", "fp.bytes", "enc.regions",
    "enc.matched_bytes", "enc.collisions", "enc.ineligible_hits",
    "cache.inserts", "cache.evictions", "cache.flushes",
    "cache.admission_rejected", "cache.bytes_used", "cache.byte_budget",
    "dec.missing", "dec.history_decodes", "serving.requests",
    "spans.recorded", "spans.dropped", "telemetry.samples",
    "verify.checks",
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


#: What :func:`patch` saved to undo one replacement:
#: (owner object, attribute, owned rather than inherited, original).
Saved = Tuple[Any, str, bool, Any]


def patch(entries: Iterable[Tuple[str, str, Callable[[Any], Any]]]
          ) -> List[Saved]:
    """Replace each ``owner.attr`` by ``make(original)``.

    ``entries`` holds (owner, attribute, make) triples, the owner named
    as in :data:`TARGETS`.  Returns what :func:`restore` needs to undo
    the replacements.
    """
    saved: List[Saved] = []
    for owner, attr, make in entries:
        target = _resolve(owner)
        original = getattr(target, attr)
        saved.append((target, attr, attr in vars(target), original))
        setattr(target, attr, make(original))
    return saved


def restore(saved: List[Saved]) -> None:
    """Undo :func:`patch`, last replacement first; empties ``saved``."""
    while saved:
        target, attr, own, original = saved.pop()
        if own:
            setattr(target, attr, original)
        else:
            # An inherited method was shadowed on the subclass.
            delattr(target, attr)


#: Spans kept in memory and written out; spans past it are still timed
#: and counted (``dropped``) but not stored.
MAX_SPANS = 100_000


class LayerTracer:
    """Patches :data:`TARGETS`, aggregates self time, keeps spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        #: Summed duration of root spans (spans with no traced parent).
        self.root_s = 0.0
        #: (span id, name, start, end, parent id or -1, op id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self.op = 0
        #: Program objects seen by counter hooks, harvested per op.
        self.testbeds: List[Any] = []
        self.pools: List[Any] = []
        self._released: List[Any] = []
        self._stack: List[List[float]] = []
        self._next_id = 0
        self._saved: List[Saved] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> "LayerTracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._saved = patch(
            (owner, attr,
             lambda fn, layer=layer, owner=owner, attr=attr: self._wrap(
                 layer, f"{owner}.{attr}", fn, _HOOKS.get((owner, attr))))
            for layer, owner, attr in TARGETS)
        return self

    def uninstall(self) -> None:
        restore(self._saved)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _wrap(self, layer: str, name: str, fn: Callable[..., Any],
              hook: Optional[Callable[["LayerTracer", tuple, Any], None]]
              ) -> Callable[..., Any]:
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        tracer = self
        clock = perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = int(stack[-1][2]) if stack else -1
            # [start, time covered by children, span id]
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_s += duration
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, name, start, end, parent,
                                  tracer.op))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters -----------------------------------------------------------

    def harvest(self) -> None:
        """Fold the objects captured since the last call into counters."""
        add = self.counters
        for testbed in self.testbeds:
            _harvest_testbed(testbed, add)
        for conn in self._released:
            add["tcp.retransmits"] += conn.stats.retransmissions
            add["tcp.timeouts"] += conn.stats.timeouts
        for pool in self.pools:
            add["tcp.pool_high_water"] = max(add["tcp.pool_high_water"],
                                             pool.high_water)
        self.testbeds.clear()
        self.pools.clear()
        self._released.clear()

    # -- export -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (one header line first)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"schema": "perfbench.spans/v1",
                                  "fields": ["id", "name", "start", "end",
                                             "parent", "op"],
                                  "kept": len(self.spans),
                                  "dropped": self.dropped}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _harvest_testbed(testbed: Any, add: Dict[str, int]) -> None:
    add["sim.events"] += testbed.sim.events_processed
    for link in (testbed.bottleneck_forward, testbed.bottleneck_reverse):
        add["link.pkts"] += link.stats.packets_offered
        add["link.lost"] += link.stats.packets_lost
        add["link.queue_drops"] += link.stats.packets_queue_dropped
    for stack in (testbed.client_stack, testbed.server_stack):
        for conn in stack.connections():
            add["tcp.retransmits"] += conn.stats.retransmissions
            add["tcp.timeouts"] += conn.stats.timeouts
    gateways = testbed.gateways
    if gateways is not None:
        enc_gw, dec_gw = gateways.encoder, gateways.decoder
        add["gw.data_pkts"] += enc_gw.stats.data_packets
        add["gw.encoded_pkts"] += enc_gw.stats.encoded_packets
        add["gw.decoded_ok"] += dec_gw.stats.decoded_ok
        add["gw.undecodable"] += dec_gw.stats.undecodable_dropped
        enc = enc_gw.encoder.stats
        add["enc.regions"] += enc.regions
        add["enc.matched_bytes"] += enc.matched_bytes
        add["enc.collisions"] += enc.collisions
        add["enc.ineligible_hits"] += enc.ineligible_hits
        for cache in (enc_gw.cache, dec_gw.cache):
            add["cache.evictions"] += cache.store.evictions
            add["cache.flushes"] += cache.flushes
            add["cache.admission_rejected"] += getattr(
                cache, "admission_rejected", 0)
        add["cache.bytes_used"] += enc_gw.cache.store.bytes_used
        add["cache.byte_budget"] += enc_gw.cache.store.byte_budget
        dec = dec_gw.decoder.stats
        add["dec.missing"] += dec.missing
        add["dec.history_decodes"] += dec.history_decodes
    if testbed.spans is not None:
        add["spans.recorded"] += len(testbed.spans.spans)
        add["spans.dropped"] += testbed.spans.dropped
    verifier = testbed.verifier
    if verifier is not None:
        add["verify.checks"] += (verifier.regions_checked
                                 + verifier.coherence_checks)


def _count(name: str, amount: Callable[[tuple, Any], int]
           ) -> Callable[[LayerTracer, tuple, Any], None]:
    def hook(tracer: LayerTracer, args: tuple, result: Any) -> None:
        tracer.counters[name] += amount(args, result)
    return hook


def _keep_testbed(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.testbeds.append(result)


def _keep_pool(tracer: LayerTracer, args: tuple, result: Any) -> None:
    if not any(pool is args[0] for pool in tracer.pools):
        tracer.pools.append(args[0])


def _keep_released(tracer: LayerTracer, args: tuple, result: Any) -> None:
    if result:
        tracer._released.append(args[1])


def _cache_inserts(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer.counters["cache.inserts"] += 1


_HOOKS: Dict[Tuple[str, str], Callable[[LayerTracer, tuple, Any], None]] = {
    ("repro.experiments.runner", "build_testbed"): _keep_testbed,
    ("repro.serving.engine", "build_testbed"): _keep_testbed,
    ("repro.experiments.runner", "corpus_object"):
        _count("workload.bytes", lambda args, result: len(result)),
    ("repro.workload.catalog:ContentCatalog", "object_bytes"):
        _count("workload.bytes", lambda args, result: len(result)),
    ("repro.net.tcp.stack:TCPStack", "connect"):
        _count("tcp.conns", lambda args, result: 1),
    ("repro.net.tcp.stack:TCPStack", "release"): _keep_released,
    ("repro.core.fingerprint:FingerprintScheme", "anchors"):
        _count("fp.bytes", lambda args, result: len(args[1])),
    ("repro.core.fingerprint:FingerprintScheme", "batch_anchors"):
        _count("fp.bytes", lambda args, result: sum(map(len, args[1]))),
    ("repro.core.cache:ByteCache", "insert_packet"): _cache_inserts,
    ("repro.core.shardcache:ShardedByteCache", "insert_packet"):
        _cache_inserts,
    ("repro.serving.engine", "run_serving"):
        _count("serving.requests",
               lambda args, result: result["requests"]["total"]),
    ("repro.serving.engine:FlowPool", "sweep"): _keep_pool,
    ("repro.metrics.telemetry:TelemetrySampler", "sample_once"):
        _count("telemetry.samples", lambda args, result: 1),
}


def per_layer_metrics(tracer: LayerTracer, passes: int,
                      overhead: float) -> Dict[str, Dict[str, Any]]:
    """The ``--trace 1`` metric set: per-pass means of the tracer's
    layer times, calls and counters, plus derived ratios."""
    def metric(value: float, unit: str) -> Dict[str, Any]:
        return {"value": value, "unit": unit}

    wall = tracer.root_s
    out: Dict[str, Dict[str, Any]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = metric(tracer.calls[layer] / passes, "count")
        out[f"{layer}.self_s"] = metric(tracer.self_s[layer] / passes, "s")
        out[f"{layer}.share"] = metric(
            tracer.self_s[layer] / wall if wall else 0.0, "ratio")
    c = tracer.counters

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    # Reported below instead: the inputs of the ratios, and the pool's
    # high-water mark, which is a maximum rather than a per-pass sum.
    special = {"gw.encoded_pkts", "gw.decoded_ok", "enc.collisions",
               "enc.ineligible_hits", "cache.bytes_used",
               "cache.byte_budget", "tcp.pool_high_water"}
    for name in COUNTERS:
        if name not in special:
            out[name] = metric(c[name] / passes, "count")
    out["tcp.pool_high_water"] = metric(c["tcp.pool_high_water"], "count")
    out["gw.encoded_frac"] = metric(
        frac(c["gw.encoded_pkts"], c["gw.data_pkts"]), "ratio")
    out["gw.decoded_frac"] = metric(
        frac(c["gw.decoded_ok"], c["gw.decoded_ok"] + c["gw.undecodable"]),
        "ratio")
    out["enc.hit_use_frac"] = metric(
        frac(c["enc.regions"], c["enc.regions"] + c["enc.collisions"]
             + c["enc.ineligible_hits"]), "ratio")
    out["cache.occupancy"] = metric(
        frac(c["cache.bytes_used"], c["cache.byte_budget"]), "ratio")
    out["trace.overhead"] = metric(overhead, "ratio")
    return out


class Capture:
    """Records the testbeds built and fetch outcomes started while
    active, to read figures the program's reports do not carry (link
    bytes, gateway packets, per-request times)."""

    def __init__(self) -> None:
        self.testbeds: List[Any] = []
        self.outcomes: List[Any] = []
        self._saved: List[Saved] = []

    def __enter__(self) -> "Capture":
        self._saved = patch(
            (owner, attr, lambda fn, keep=keep: _recording(fn, keep))
            for owner, attr, keep in (
                ("repro.experiments.runner", "build_testbed", self.testbeds),
                ("repro.serving.engine", "build_testbed", self.testbeds),
                ("repro.app.transfer:FileClient", "fetch", self.outcomes)))
        return self

    def __exit__(self, *exc: Any) -> None:
        restore(self._saved)


def _recording(fn: Callable[..., Any], keep: List[Any]) -> Callable[..., Any]:
    def recorded(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        keep.append(result)
        return result
    return recorded
