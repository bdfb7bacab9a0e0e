"""Runtime observability: counters, histograms, spans, timeline, exporters.

The one import most code needs is :class:`Observer`::

    from repro.obs import Observer

    obs = Observer.attach(net, mic=mc)     # hook hosts + MC
    ...  # run the simulation
    snap = obs.snapshot()                   # derive every counter/gauge
    print(obs.summary())

``docs/observability.md`` documents the full metrics contract; the contract
itself lives in :mod:`repro.obs.contract` and is test-enforced against the
doc.  See ``python -m repro.obs --help`` for the CLI.
"""

from .contract import CONTRACT, MetricSpec, contract_names, format_contract_table, spec
from .exporters import to_json, write_json
from .flight import (
    ANOMALY_TRIGGERS,
    DEFAULT_TRIGGERS,
    AnomalyTrigger,
    FlightDump,
    FlightRecorder,
    format_trigger_table,
)
from .journey import (
    JOURNEY_EVENTS,
    Journey,
    JourneyEvent,
    JourneyEventSpec,
    JourneyRecorder,
    format_hop_table,
    format_journey_table,
    header_tuple,
    journey_event_kinds,
    journeys_to_json,
)
from .metrics import DEFAULT_BUCKET_BOUNDS, Histogram, MetricsSnapshot, Sample, labels_key
from .observer import Observer
from .perfetto import to_perfetto, write_perfetto
from .prof import (
    PROF_SUBSYSTEMS,
    Profiler,
    ProfileReport,
    ProfSubsystem,
    format_prof_table,
    format_prof_top,
)
from .spans import NULL_SPAN, Span, SpanLog, SpanRecord, begin
from .timeline import MetricsTimeline

__all__ = [
    "Observer",
    "MetricsSnapshot",
    "MetricsTimeline",
    "Histogram",
    "DEFAULT_BUCKET_BOUNDS",
    "Sample",
    "SpanRecord",
    "Span",
    "SpanLog",
    "NULL_SPAN",
    "begin",
    "labels_key",
    "MetricSpec",
    "CONTRACT",
    "contract_names",
    "spec",
    "format_contract_table",
    "JourneyRecorder",
    "Journey",
    "JourneyEvent",
    "JourneyEventSpec",
    "JOURNEY_EVENTS",
    "journey_event_kinds",
    "format_journey_table",
    "format_hop_table",
    "header_tuple",
    "journeys_to_json",
    "FlightRecorder",
    "FlightDump",
    "AnomalyTrigger",
    "ANOMALY_TRIGGERS",
    "DEFAULT_TRIGGERS",
    "format_trigger_table",
    "to_perfetto",
    "write_perfetto",
    "Profiler",
    "ProfileReport",
    "ProfSubsystem",
    "PROF_SUBSYSTEMS",
    "format_prof_table",
    "format_prof_top",
    "to_json",
    "write_json",
]
