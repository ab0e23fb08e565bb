"""The proxy workloads: one household's day through a FIAT proxy.

``proxy_day`` replays it through the default scalar proxy,
``proxy_day_stream`` through the streaming engine and
``proxy_day_durable`` through the scalar proxy with the write-ahead
journal and periodic snapshots.  Each round replays the whole day, in
timestamp order, through a freshly built stack around the same trained
models; a closed loop offers the next packet or proof when the previous
call returns.  Every time is scaled to the reference speed
(:mod:`calib`).
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

import numpy as np

from repro.core import FiatConfig, FiatSystem
from repro.recovery import RecoveryManager
from repro.stream import StreamingEngine

import inputs
import layers
from calib import Ticker
from tracer import Tracer, median, percentile

MODES = {"proxy_day": "scalar", "proxy_day_stream": "stream", "proxy_day_durable": "durable"}


@dataclass
class Round:
    """What one replay of the household measured."""

    start: float
    end: float
    #: per packet: when it was offered and when its verdict was returned
    #: (dropped once summarised, so memory stays flat in the rounds run)
    offered: Optional[np.ndarray]
    decided_at: Optional[np.ndarray]
    #: per proof and per snapshot cut: (start, end)
    proofs: np.ndarray
    cuts: np.ndarray
    registered: int
    #: packets whose verdict the round saw returned
    decided: int
    #: the proxy's own tallies at the end of the round
    allowed: int
    dropped: int
    rule_hits: int
    decisions: int
    #: the stack, kept for the last round only (memory stays flat in rounds)
    proxy: Optional[object]
    validation: Optional[object]
    state_dir: Optional[str] = None


@dataclass
class FlushLog:
    """Every streaming-engine flush that had packets to decide."""

    #: (packets decided, start, end, triggered by a full window)
    entries: List[tuple] = field(default_factory=list)

    def install(self) -> None:
        original = StreamingEngine.flush_pending
        entries = self.entries
        clock = perf_counter

        def flush_pending(engine):
            pending = engine.pending
            if not pending:
                return original(engine)
            started = clock()
            original(engine)
            entries.append((pending, started, clock(), pending >= engine.window))

        StreamingEngine.flush_pending = flush_pending


def run(name: str, ctx) -> dict:
    mode = MODES[name]
    tracer = Tracer() if ctx.trace else None
    if tracer is not None:
        layers.install_cold(tracer)
    ticker = Ticker()
    with ticker:
        system, setup_times = _setups(mode, ctx, ticker)
        day = inputs.build_day(
            system,
            ctx.seed,
            duration_s=2 * 3600.0 if ctx.smoke else inputs.HOUSEHOLD_S,
            attacks_per_device=2 if ctx.smoke else inputs.ATTACKS_PER_DEVICE,
        )
        gc.collect()
        gc.freeze()  # the inputs live all run: keep them out of every collection

        flushes = FlushLog()
        if mode == "stream":
            flushes.install()
        if tracer is not None:
            layers.install_hot(tracer)
        syncs_before = ctx.syncs.calls
        rounds: List[Round] = []
        # Per round, from the ticks so far: verdict-time percentiles at the
        # reference speed (one array per round would grow memory with rounds).
        verdict_p50: List[float] = []
        verdict_p99: List[float] = []
        deadline = perf_counter() + ctx.seconds
        round_s = 0.0
        while not rounds or (not ctx.smoke and perf_counter() + round_s <= deadline):
            started = perf_counter()
            if rounds:
                rounds[-1].proxy = rounds[-1].validation = None
            rounds.append(_round(system, day, mode, ctx, str(len(rounds)), flushes))
            verdict_s = ticker.scaled(rounds[-1].offered, rounds[-1].decided_at)
            verdict_p50.append(percentile(verdict_s, 50))
            verdict_p99.append(percentile(verdict_s, 99))
            rounds[-1].offered = rounds[-1].decided_at = None
            round_s = perf_counter() - started
        syncs = ctx.syncs.calls - syncs_before
    if tracer is not None:
        tracer.uninstall()

    last = rounds[-1]
    problems = _check(system, day, mode, rounds)
    state_kb = layers.state_kb(last.proxy, last.validation)
    disk_kb = layers.dir_kb(last.state_dir) if last.state_dir else 0.0
    if mode == "durable":
        problems += _check_recovery(system, last)

    replays = [ticker.scaled_span(r.start, r.end) for r in rounds]
    replay_s = median(replays)
    proof_s = np.concatenate([ticker.scaled(r.proofs[:, 0], r.proofs[:, 1]) for r in rounds])
    cut_s = np.concatenate([ticker.scaled(r.cuts[:, 0], r.cuts[:, 1]) for r in rounds])
    registered = sum(r.registered for r in rounds)
    verdicts = sum(r.allowed + r.dropped for r in rounds)
    attempted = len(rounds) * (day.n_packets + day.n_proofs)
    loops = ticker.loop_times()
    print(
        f"{name}: {len(rounds)} round(s) of {day.n_packets} packets, {day.n_proofs} proofs, "
        f"{len(day.attacks)} attacks over {day.duration_s / 3600:.0f} h; verdicts {verdicts}, "
        f"proofs registered {registered}, snapshot cuts {len(cut_s)}; replay median "
        f"{median([r.end - r.start for r in rounds]):.3f} s as timed, {replay_s:.3f} s at the "
        f"reference speed; calibration loop p5/p50/p95 {percentile(loops, 5) * 1e3:.2f}/"
        f"{percentile(loops, 50) * 1e3:.2f}/{percentile(loops, 95) * 1e3:.2f} ms"
    )
    if tracer is None:
        values = {
            "setup_s": median(setup_times),
            "packets_per_s": day.n_packets / replay_s,
            "home_s_p50": replay_s,
            "verdict_us_p50": median(verdict_p50) * 1e6,
            "state_kb": state_kb,
        }
    else:
        units = len(rounds)
        values = layers.metrics(tracer, cold_starts=len(setup_times), units=units, syncs=syncs)
        past_bootstrap = sum(
            p.timestamp >= system.config.bootstrap_s for packets, _ in day.steps for p in packets
        )
        values["core.rules.hit_ratio"] = sum(r.rule_hits for r in rounds) / (past_bootstrap * units)
        values["events.decisions"] = sum(r.decisions for r in rounds) / units
        values.update(
            layers.stream_metrics(flushes.entries, tracer.span("core.proxy.process").calls, units)
        )
        values["recovery.checkpoint_ms_p50"] = percentile(cut_s, 50) * 1e3 if len(cut_s) else 0.0
        values["recovery.checkpoint_ms_p95"] = percentile(cut_s, 95) * 1e3 if len(cut_s) else 0.0
        values["recovery.disk_kb"] = disk_kb
        values["fleet.overhead_ms"] = 0.0
        values["fleet.homes_per_s"] = 0.0
        values["verdict_us_p99"] = median(verdict_p99) * 1e6
        values["proof_us_p50"] = percentile(proof_s, 50) * 1e6
    return {
        "values": values,
        "problems": problems,
        "attempted": attempted,
        "failed": attempted - verdicts - registered,
    }


def _setups(mode: str, ctx, ticker: Ticker):
    """Build the system several times; return the last one and every build's time."""
    setup_times = []
    system = None
    for i in range(1 if ctx.smoke else 3):
        system = None
        gc.collect()
        started = perf_counter()
        system = FiatSystem(
            list(inputs.DEVICES), config=FiatConfig(streaming=mode == "stream"), seed=ctx.seed
        )
        if mode == "durable":
            system.enable_recovery(os.path.join(ctx.workdir, f"setup-{i}"))
        setup_times.append((started, perf_counter()))
        if system.recovery is not None:
            system.recovery.close()
    return system, [ticker.scaled_span(a, b) for a, b in setup_times]


def _round(system: FiatSystem, day: inputs.ProxyDay, mode: str, ctx, tag: str, flushes: FlushLog) -> Round:
    """Replay the whole day once through a fresh stack; read the clock around every call."""
    proxy, validation = system.cold_restart()
    manager = None
    state_dir = None
    if mode == "durable":
        state_dir = os.path.join(ctx.workdir, f"round-{tag}")
        manager = system.enable_recovery(state_dir)
    gc.collect()

    offered = np.empty(day.n_packets, dtype=np.float64)
    decided_at = np.empty(day.n_packets, dtype=np.float64)
    proofs: List[tuple] = []
    cuts: List[tuple] = []
    registered = 0
    ingest = proxy.ingest
    receive_auth = proxy.receive_auth
    clock = perf_counter
    n = 0
    first_flush = len(flushes.entries)

    start = clock()
    if mode == "scalar":
        for packets, proof in day.steps:
            for packet in packets:
                offered[n] = clock()
                ingest(packet)
                decided_at[n] = clock()
                n += 1
            if proof is not None:
                t0 = clock()
                registered += receive_auth(*proof) is not None
                proofs.append((t0, clock()))
    elif mode == "stream":
        for packets, proof in day.steps:
            for packet in packets:
                offered[n] = clock()
                ingest(packet)
                n += 1
            if proof is not None:
                t0 = clock()
                registered += receive_auth(*proof) is not None
                proofs.append((t0, clock()))
    else:
        journal_packet = manager.journal_packet
        journal_auth = manager.journal_auth
        maybe_checkpoint = manager.maybe_checkpoint
        for packets, proof in day.steps:
            for packet in packets:
                t0 = clock()
                journal_packet(packet)
                ingest(packet)
                t1 = clock()
                offered[n] = t0
                decided_at[n] = t1
                n += 1
                if maybe_checkpoint(packet.timestamp):
                    cuts.append((t1, clock()))
            if proof is not None:
                t0 = clock()
                journal_auth(*proof)
                registered += receive_auth(*proof) is not None
                proofs.append((t0, clock()))
    proxy.flush()
    end = clock()
    if manager is not None:
        manager.close()

    decided = n
    if mode == "stream":
        # A buffered packet's verdict exists once the flush deciding it returns.
        flushed = flushes.entries[first_flush:]
        counts = np.array([entry[0] for entry in flushed], dtype=np.int64)
        decided = int(counts.sum())
        if decided == n:
            decided_at = np.repeat(np.array([entry[2] for entry in flushed]), counts)
        else:
            decided_at = offered.copy()
    return Round(
        start=start,
        end=end,
        offered=offered,
        decided_at=decided_at,
        proofs=np.asarray(proofs, dtype=np.float64).reshape(-1, 2),
        cuts=np.asarray(cuts, dtype=np.float64).reshape(-1, 2),
        registered=registered,
        decided=decided,
        allowed=proxy.n_allowed,
        dropped=proxy.n_dropped,
        rule_hits=proxy.rules.n_hits if proxy.rules is not None else 0,
        decisions=len(proxy.decisions),
        proxy=proxy,
        validation=validation,
        state_dir=state_dir,
    )


def _scalar_reference(system: FiatSystem, day: inputs.ProxyDay) -> bytes:
    """Decision log of an untimed replay through a plain scalar stack."""
    streaming = system.config.streaming
    system.config.streaming = False
    try:
        proxy, _ = system.build_stack()
    finally:
        system.config.streaming = streaming
    for packets, proof in day.steps:
        for packet in packets:
            proxy.ingest(packet)
        if proof is not None:
            proxy.receive_auth(*proof)
    proxy.flush()
    return proxy.decision_log()


def _check(system: FiatSystem, day: inputs.ProxyDay, mode: str, rounds: List[Round]) -> List[str]:
    problems = []
    for i, r in enumerate(rounds):
        if r.allowed + r.dropped != day.n_packets:
            problems.append(
                f"round {i}: allowed {r.allowed} + dropped {r.dropped} "
                f"!= {day.n_packets} packets offered"
            )
        if r.decided != day.n_packets:
            problems.append(f"round {i}: verdicts seen for {r.decided} of {day.n_packets} packets")
        if r.registered != day.n_proofs:
            problems.append(f"round {i}: {r.registered} of {day.n_proofs} genuine proofs registered")
    last = rounds[-1].proxy
    state = last.snapshot()
    if state["open"]:
        problems.append(f"{len(state['open'])} event(s) still open after the final flush")

    rule_devices = {name for name, c in system.classifiers.items() if c.uses_rules}
    by_event = {d.event_id: d for d in last.decisions if d.event_id}
    for event_id, device in day.attacks.items():
        decision = by_event.get(event_id)
        if device in rule_devices and (decision is None or decision.action != "drop"):
            problems.append(f"attack {event_id} on rule device {device} was not dropped")
    for d in last.decisions:
        if d.predicted_manual and d.action == "allow" and d.human_backed is not True:
            problems.append(f"manual-predicted event {d.event_id} allowed without a human proof")
    if mode != "scalar" and last.decision_log() != _scalar_reference(system, day):
        problems.append(f"{mode} decision log differs from the scalar replay")
    return problems


def _check_recovery(system: FiatSystem, last: Round) -> List[str]:
    """Recover from the final state dir; the stack must equal the live one."""
    manager = RecoveryManager(
        last.state_dir,
        system.build_stack,
        snapshot_interval_s=system.config.snapshot_interval_s,
        reconcile="resume",
    )
    proxy, validation, _ = manager.recover()
    manager.close()
    # The live stack was flushed at the end of the capture; flushing is not
    # journaled, so the recovered one closes its open events the same way.
    proxy.flush()
    if proxy.snapshot() != last.proxy.snapshot():
        return ["recovered proxy snapshot differs from the live proxy's"]
    if validation.to_state() != last.validation.to_state():
        return ["recovered validation state differs from the live one"]
    return []

