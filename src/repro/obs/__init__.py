"""Unified observability: events, spans and metrics for the whole
rewrite -> evaluate pipeline.

The layer has four pieces (see ``docs/observability.md``):

* :mod:`repro.obs.events` -- the typed event taxonomy every pipeline
  component emits (``RuleAttempt``, ``RuleFired``, ``BlockStart/End``,
  ``PassEnd``, ``MethodCall``, ``ConstraintCheck``, ``EvalOp``, ...);
* :class:`~repro.obs.bus.EventBus` -- synchronous pub/sub with a
  null-sink fast path (producers skip event construction entirely when
  nobody subscribed);
* :class:`~repro.obs.tracer.Tracer` -- hierarchical monotonic-clock
  spans (optimize -> block -> rule -> method) with JSON export;
* :class:`~repro.obs.metrics.MetricsRegistry` -- counters and
  histograms absorbing the evaluator's ``EvalStats`` and adding the
  rewrite-side telemetry (per-rule attempts/hits/misses and timing,
  budget consumed per block, term-size deltas).

:class:`~repro.obs.profile.Profiler` bundles all of the above behind
one object; ``Database.explain_json`` and the CLI's ``.profile`` mode
use it, and ``benchmarks/perf`` reads the same JSON schema.

On top of those, the request-scoped telemetry added for the serving
layer:

* :class:`~repro.obs.telemetry.TraceContext` /
  :func:`~repro.obs.telemetry.current_trace` /
  :func:`~repro.obs.telemetry.use_trace` -- W3C-style trace ids
  propagated by context variable through retries, the admission queue,
  the rewrite pipeline and the WAL commit;
* :class:`~repro.obs.telemetry.Telemetry` -- the hub a server mounts
  (bus + registry + exporters);
* :class:`~repro.obs.export.JsonlSink` and
  :class:`~repro.obs.export.OtlpSpanExporter` -- rotating JSONL logs
  and OTLP/JSON span batches;
* :class:`~repro.obs.metrics.BucketHistogram` -- fixed log-scaled
  buckets with p50/p95/p99 and a Prometheus exposition
  (:meth:`~repro.obs.metrics.MetricsRegistry.expose_text`).
"""

from repro.obs.bus import EventBus, Subscription
from repro.obs.events import (BlockEnd, BlockStart, ConstraintCheck,
                              EvalOp, Event, MethodCall, PassEnd,
                              PhaseEnd, PhaseStart, RuleAttempt,
                              RuleFired, SlowQuery, SubscriberDetached)
from repro.obs.metrics import (BucketHistogram, CounterMetric, Histogram,
                               MetricsRegistry, log_bucket_bounds,
                               prometheus_name)
from repro.obs.profile import Profiler, fold_event
from repro.obs.telemetry import (Telemetry, TraceContext, current_trace,
                                 use_trace)
from repro.obs.export import JsonlSink, OtlpSpanExporter
from repro.obs.tracer import Span, Tracer

__all__ = [
    "EventBus", "Subscription", "Event", "PhaseStart", "PhaseEnd",
    "BlockStart", "BlockEnd", "PassEnd", "RuleAttempt", "RuleFired",
    "ConstraintCheck", "MethodCall", "EvalOp",
    "SubscriberDetached", "SlowQuery",
    "CounterMetric", "Histogram", "BucketHistogram", "MetricsRegistry",
    "log_bucket_bounds", "prometheus_name",
    "Span", "Tracer", "Profiler", "fold_event",
    "TraceContext", "current_trace", "use_trace", "Telemetry",
    "JsonlSink", "OtlpSpanExporter",
]
