"""Which calls the traced run wraps, and the per-layer metrics built from them.

Every wrapper sits where the caller looks the callable up: a method on
its class, or a function in the globals of the module that calls it.
Cold-start layers (training, fleet bookkeeping) are wrapped before the
set-up, hot-path layers before the measured rounds.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import repro.core.pipeline
import repro.core.rules
import repro.fleet.runner
import repro.predictability.buckets
import repro.recovery.manager
import repro.sensors.humanness
import repro.stream.binmatch
from repro.core import EventClassifier, FiatProxy, FiatSystem
from repro.core.rules import RuleTable
from repro.core.validation import HumanValidationService
from repro.fleet import FleetAggregator, FleetCheckpoint
from repro.ml.tree import DecisionTreeClassifier
from repro.quic.channel import ChannelReceiver
from repro.recovery import JournalWriter, RecoveryManager
from repro.sensors.humanness import HumannessValidator

from tracer import Tracer, median

#: Per-layer metrics, in the order of BENCHMARK.json: (name, unit).
LAYER_METRICS = (
    ("sensors.validator_fit_s", "s"),
    ("sensors.dataset_s", "s"),
    ("features.windows_to_matrix_s", "s"),
    ("ml.tree_fit_s", "s"),
    ("ml.tree_fits", "count"),
    ("core.classifier.train_s", "s"),
    ("testbed.labeled_events_s", "s"),
    ("core.pipeline.run_accuracy_s", "s"),
    ("fleet.run_home_s", "s"),
    ("fleet.overhead_ms", "ms"),
    ("fleet.record_ms", "ms"),
    ("fleet.compact_ms", "ms"),
    ("fleet.fold_ms", "ms"),
    ("fleet.report_ms", "ms"),
    ("fleet.homes_per_s", "homes/s"),
    ("core.proxy.process_us", "us"),
    ("core.rules.match_us", "us"),
    ("net.flow_key_us", "us"),
    ("core.rules.hit_ratio", "ratio"),
    ("core.classifier.classify_us", "us"),
    ("events.decisions", "count"),
    ("core.validation.ingest_us", "us"),
    ("quic.receive_us", "us"),
    ("sensors.is_human_us", "us"),
    ("stream.flushes", "count"),
    ("stream.window_fill_mean", "pkt"),
    ("stream.barrier_flush_share", "ratio"),
    ("stream.flush_ms_p50", "ms"),
    ("stream.scalar_packets", "count"),
    ("recovery.journal_us", "us"),
    ("recovery.journal_bytes_per_record", "B"),
    ("recovery.snapshot_state_ms", "ms"),
    ("recovery.snapshot_write_ms", "ms"),
    ("recovery.snapshot_kb_last", "KiB"),
    ("recovery.forced_syncs", "count"),
    ("recovery.checkpoint_ms_p50", "ms"),
    ("recovery.checkpoint_ms_p95", "ms"),
    ("recovery.disk_kb", "KiB"),
    ("verdict_us_p99", "us"),
    ("proof_us_p50", "us"),
)


class SyncCounter:
    """Stands in for ``os.fsync``: counts forced syncs instead of waiting on a disk.

    State dirs live in the benchmark's checkout, which may sit on a
    shared disk; replacing the flush keeps its latency out of every
    timed span while the writes themselves still happen.
    """

    def __init__(self) -> None:
        self.calls = 0

    def install(self) -> None:
        def fsync(fd: int) -> None:
            self.calls += 1

        os.fsync = fsync


def install_cold(tracer: Tracer) -> None:
    """Wrap the cold-start and fleet layers."""
    humanness = repro.sensors.humanness
    pipeline = repro.core.pipeline
    tracer.wrap(HumannessValidator, "fit", "sensors.validator_fit")
    tracer.wrap(humanness, "generate_humanness_dataset", "sensors.dataset")
    tracer.wrap(humanness, "windows_to_matrix", "features.windows_to_matrix")
    tracer.wrap(DecisionTreeClassifier, "fit", "ml.tree_fit")
    tracer.wrap(pipeline, "train_event_classifier", "core.classifier.train")
    tracer.wrap(pipeline, "generate_labeled_events", "testbed.labeled_events")
    tracer.wrap(FiatSystem, "run_accuracy", "core.pipeline.run_accuracy")
    tracer.wrap(repro.fleet.runner, "run_home_traced", "fleet.run_home", samples=True)
    tracer.wrap(FleetCheckpoint, "record_home", "fleet.record")
    tracer.wrap(FleetCheckpoint, "compact", "fleet.compact")
    tracer.wrap(FleetAggregator, "add", "fleet.fold")
    tracer.wrap(FleetAggregator, "report", "fleet.report")


def install_hot(tracer: Tracer) -> None:
    """Wrap the per-packet, per-proof and durability layers."""
    tracer.wrap(FiatProxy, "process", "core.proxy.process")
    tracer.wrap(RuleTable, "matches", "core.rules.match")
    for module in (repro.core.rules, repro.predictability.buckets, repro.stream.binmatch):
        tracer.wrap(module, "flow_key", "net.flow_key")
    tracer.wrap(EventClassifier, "is_manual", "core.classifier.classify")
    tracer.wrap(HumanValidationService, "ingest", "core.validation.ingest")
    tracer.wrap(ChannelReceiver, "receive", "quic.receive")
    tracer.wrap(HumannessValidator, "is_human_features", "sensors.is_human")
    for attr in ("journal_packet", "journal_auth", "journal_unlock"):
        tracer.wrap(RecoveryManager, attr, "recovery.journal")
    tracer.count(JournalWriter, "append", "recovery.journal_bytes")
    tracer.wrap(FiatProxy, "snapshot", "recovery.snapshot_state")
    tracer.wrap(HumanValidationService, "to_state", "recovery.snapshot_state")
    tracer.wrap(repro.recovery.manager, "write_snapshot", "recovery.snapshot_write", count_return=True)


def _per_call(tracer: Tracer, name: str, scale: float) -> float:
    span = tracer.span(name)
    return span.self_time / span.calls * scale if span.calls else 0.0


def metrics(tracer: Tracer, cold_starts: int, units: int, syncs: int) -> Dict[str, float]:
    """Self times of the wrapped layers.

    ``cold_starts`` is the number of system builds (or homes) the
    cold-start layers ran for, ``units`` the number of replayed days (or
    homes) the per-unit counts are divided by.
    """
    def per_cold(name: str) -> float:
        return tracer.span(name).self_time / cold_starts if cold_starts else 0.0

    journal_bytes = tracer.span("recovery.journal_bytes")
    cuts = tracer.span("recovery.snapshot_write").calls
    return {
        "sensors.validator_fit_s": per_cold("sensors.validator_fit"),
        "sensors.dataset_s": per_cold("sensors.dataset"),
        "features.windows_to_matrix_s": per_cold("features.windows_to_matrix"),
        "ml.tree_fit_s": per_cold("ml.tree_fit"),
        "ml.tree_fits": tracer.span("ml.tree_fit").calls / cold_starts if cold_starts else 0.0,
        "core.classifier.train_s": per_cold("core.classifier.train"),
        "testbed.labeled_events_s": per_cold("testbed.labeled_events"),
        "core.pipeline.run_accuracy_s": per_cold("core.pipeline.run_accuracy"),
        "fleet.run_home_s": per_cold("fleet.run_home"),
        "fleet.record_ms": _per_call(tracer, "fleet.record", 1e3),
        "fleet.compact_ms": _per_call(tracer, "fleet.compact", 1e3),
        "fleet.fold_ms": _per_call(tracer, "fleet.fold", 1e3),
        "fleet.report_ms": _per_call(tracer, "fleet.report", 1e3),
        "core.proxy.process_us": _per_call(tracer, "core.proxy.process", 1e6),
        "core.rules.match_us": _per_call(tracer, "core.rules.match", 1e6),
        "net.flow_key_us": _per_call(tracer, "net.flow_key", 1e6),
        "core.classifier.classify_us": _per_call(tracer, "core.classifier.classify", 1e6),
        "core.validation.ingest_us": _per_call(tracer, "core.validation.ingest", 1e6),
        "quic.receive_us": _per_call(tracer, "quic.receive", 1e6),
        "sensors.is_human_us": _per_call(tracer, "sensors.is_human", 1e6),
        "recovery.journal_us": _per_call(tracer, "recovery.journal", 1e6),
        "recovery.journal_bytes_per_record": (
            journal_bytes.returned / journal_bytes.calls if journal_bytes.calls else 0.0
        ),
        "recovery.snapshot_state_ms": (
            tracer.span("recovery.snapshot_state").self_time / cuts * 1e3 if cuts else 0.0
        ),
        "recovery.snapshot_write_ms": _per_call(tracer, "recovery.snapshot_write", 1e3),
        "recovery.snapshot_kb_last": tracer.span("recovery.snapshot_write").last_return / 1024.0,
        "recovery.forced_syncs": syncs / units if units else 0.0,
    }


def stream_metrics(entries: List[tuple], scalar_packets: int, units: int) -> Dict[str, float]:
    """Streaming-engine flush statistics; all zero when no engine ran."""
    if not entries or not units:
        return {
            "stream.flushes": 0.0,
            "stream.window_fill_mean": 0.0,
            "stream.barrier_flush_share": 0.0,
            "stream.flush_ms_p50": 0.0,
            "stream.scalar_packets": 0.0,
        }
    return {
        "stream.flushes": len(entries) / units,
        "stream.window_fill_mean": sum(e[0] for e in entries) / len(entries),
        "stream.barrier_flush_share": sum(not e[3] for e in entries) / len(entries),
        "stream.flush_ms_p50": median([e[2] - e[1] for e in entries]) * 1e3,
        "stream.scalar_packets": scalar_packets / units,
    }


def state_kb(proxy: FiatProxy, validation: HumanValidationService) -> float:
    """Canonical JSON size of a proxy's and its validation service's state, KiB."""
    state = {"proxy": proxy.snapshot(), "validation": validation.to_state()}
    return len(json.dumps(state, sort_keys=True, separators=(",", ":"))) / 1024.0


def dir_kb(path: str) -> float:
    """Bytes of every file under ``path``, KiB."""
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / 1024.0
