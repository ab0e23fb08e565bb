"""The ``fleet_cold`` workload: a seeded fleet of homes from cold start.

Each round is one whole fleet run (:class:`repro.fleet.FleetRunner`,
serial backend, durable ``state_dir``) over the next block of seven
seeded homes (see :func:`inputs.fleet_block`); another round starts
while it can end within the run's time.  A home is timed from the
previous ``on_result`` callback (or the run's start) to its own: cold
start, the §6 experiment, and the fleet's fold, checkpoint and
telemetry work for the home before it.  Every time is scaled to the
reference speed (:mod:`calib`).
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

from repro.core import FiatProxy, FiatSystem
from repro.fleet import FleetRunner, FleetSpec

import inputs
import layers
from calib import Ticker
from tracer import Tracer, median, percentile


@dataclass
class HomeProbe:
    """Reads the clock around every packet verdict and proof inside the homes."""

    #: (start, end) of every ``FiatProxy.ingest`` / ``receive_auth`` call
    verdicts: List[tuple] = field(default_factory=list)
    proofs: List[tuple] = field(default_factory=list)
    #: every home's system, for its state and rule counters
    systems: List[FiatSystem] = field(default_factory=list)

    def install(self) -> None:
        ingest = FiatProxy.ingest
        receive_auth = FiatProxy.receive_auth
        run_accuracy = FiatSystem.run_accuracy
        verdicts, proofs, systems = self.verdicts, self.proofs, self.systems
        clock = perf_counter

        def timed_ingest(proxy, packet):
            started = clock()
            verdict = ingest(proxy, packet)
            verdicts.append((started, clock()))
            return verdict

        def timed_receive_auth(proxy, wire, now):
            started = clock()
            result = receive_auth(proxy, wire, now)
            proofs.append((started, clock()))
            return result

        def kept_run_accuracy(system, *args, **kwargs):
            systems.append(system)
            return run_accuracy(system, *args, **kwargs)

        FiatProxy.ingest = timed_ingest
        FiatProxy.receive_auth = timed_receive_auth
        FiatSystem.run_accuracy = kept_run_accuracy


@dataclass
class Round:
    """Clock readings of one fleet run (unscaled)."""

    start: float
    end: float
    #: clock reading at every ``on_result`` callback
    marks: List[float]
    disk_kb: float
    state_kb: List[float]
    problems: List[str]
    n_ok: int
    n_failed: int
    hits: int


def run(ctx) -> dict:
    ticker = Ticker()
    probe = HomeProbe()
    probe.install()
    tracer = Tracer() if ctx.trace else None
    rounds: List[Round] = []
    with ticker:
        setup_times = [_fleet_start(ctx, i, ticker) for i in range(1 if ctx.smoke else 3)]
        if tracer is not None:
            layers.install_cold(tracer)
            layers.install_hot(tracer)
        syncs_before = ctx.syncs.calls
        deadline = perf_counter() + ctx.seconds
        round_s = 0.0
        while not rounds or (not ctx.smoke and perf_counter() + round_s <= deadline):
            started = perf_counter()
            rounds.append(_round(len(rounds), ctx, probe, str(len(rounds))))
            round_s = perf_counter() - started
        syncs = ctx.syncs.calls - syncs_before
    if tracer is not None:
        tracer.uninstall()

    homes = sum(r.n_ok + r.n_failed for r in rounds)
    wall_s = sum(ticker.scaled_span(r.start, r.end) for r in rounds)
    gaps = [ticker.scaled_span(a, b) for r in rounds for a, b in _homes(r)]
    verdict_s = ticker.scaled(*zip(*probe.verdicts))
    proof_s = ticker.scaled(*zip(*probe.proofs))
    print(
        f"fleet_cold: {len(rounds)} fleet run(s); homes attempted {homes}, "
        f"failed {sum(r.n_failed for r in rounds)}; packets given a verdict {len(verdict_s)}, "
        f"proofs delivered {len(proof_s)}; home median {median([b - a for r in rounds for a, b in _homes(r)]):.3f} s "
        f"as timed, {median(gaps):.3f} s at the reference speed"
    )
    if tracer is None:
        values = {
            "setup_s": median(setup_times),
            "packets_per_s": len(verdict_s) / wall_s,
            "home_s_p50": median(gaps),
            "verdict_us_p50": percentile(verdict_s, 50) * 1e6,
            "state_kb": median([kb for r in rounds for kb in r.state_kb]),
        }
    else:
        values = layers.metrics(tracer, cold_starts=homes, units=homes, syncs=syncs)
        # Both sides as timed: the traced run_home spans are unscaled.
        run_home = tracer.span("fleet.run_home").samples or []
        raw_gaps = [b - a for r in rounds for a, b in _homes(r)]
        values["fleet.overhead_ms"] = (
            sum(g - h for g, h in zip(raw_gaps, run_home)) / len(run_home) * 1e3 if run_home else 0.0
        )
        values["fleet.homes_per_s"] = homes / wall_s
        values["core.rules.hit_ratio"] = sum(r.hits for r in rounds) / len(verdict_s)
        values["events.decisions"] = sum(len(s.proxy.decisions) for s in probe.systems) / homes
        values.update(layers.stream_metrics([], 0, homes))
        values["recovery.checkpoint_ms_p50"] = 0.0
        values["recovery.checkpoint_ms_p95"] = 0.0
        values["recovery.disk_kb"] = median([r.disk_kb for r in rounds])
        values["verdict_us_p99"] = percentile(verdict_s, 99) * 1e6
        values["proof_us_p50"] = percentile(proof_s, 50) * 1e6
    return {
        "values": values,
        "problems": [p for r in rounds for p in r.problems],
        "attempted": homes,
        "failed": sum(r.n_failed for r in rounds),
    }


def _homes(r: Round):
    """(start, end) of every home of a round."""
    edges = [r.start, *r.marks]
    return list(zip(edges[:-1], edges[1:]))


def _fleet_start(ctx, i: int, ticker: Ticker) -> float:
    """Time of the fleet command's start in a fresh interpreter."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([ctx.src_dir, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    command = [
        sys.executable,
        os.path.join(here, "fleet_start.py"),
        str(ctx.seed),
        os.path.join(ctx.workdir, f"fleet-start-{i}"),
    ]
    started = perf_counter()
    subprocess.run(command, env=env, check=True, timeout=120)
    return ticker.scaled_span(started, perf_counter())


def _round(index: int, ctx, probe: HomeProbe, tag: str) -> Round:
    spec = inputs.fleet_block(ctx.seed, index)
    if ctx.smoke:
        spec = FleetSpec(name=spec.name, seed=spec.seed, homes=spec.homes[:1])
    state_dir = os.path.join(ctx.workdir, f"fleet-{tag}")
    results = []
    marks: List[float] = []

    def on_result(idx, result):
        marks.append(perf_counter())
        results.append(result)

    runner = FleetRunner(spec, backend="serial", state_dir=state_dir, on_result=on_result)
    gc.collect()
    start = perf_counter()
    report = runner.run()
    end = perf_counter()

    systems = probe.systems[-len(spec.homes):]
    hits = sum(s.proxy.rules.n_hits for s in systems if s.proxy.rules is not None)
    state_kb = [layers.state_kb(s.proxy, s.validation) for s in systems]
    if not ctx.trace:
        probe.systems.clear()
    return Round(
        start=start,
        end=end,
        marks=marks,
        disk_kb=layers.dir_kb(state_dir),
        state_kb=state_kb,
        problems=_check(spec, report, results),
        n_ok=report.n_ok,
        n_failed=report.n_failed,
        hits=hits,
    )


def _check(spec: FleetSpec, report, results) -> List[str]:
    problems = []
    if report.n_failed or report.quarantined or report.coverage.get("partial"):
        problems.append(
            f"fleet {report.name}: {report.n_failed} failed, quarantined {report.quarantined}"
        )
    if len(results) != len(spec.homes):
        problems.append(f"{len(results)} results for {len(spec.homes)} homes")
    by_id = {home.home_id: home for home in spec.homes}
    classes: Dict[str, Dict[str, int]] = {}
    alerts: Dict[str, int] = {}
    for result in results:
        home = by_id[result.home_id]
        if not result.ok:
            problems.append(f"home {result.home_id} failed: {result.error}")
            continue
        scripted = len(home.devices) * (home.n_manual + home.n_non_manual + home.n_attacks)
        if result.n_decisions != scripted:
            problems.append(
                f"home {result.home_id}: {result.n_decisions} decisions for {scripted} scripted events"
            )
        for name, tally in result.class_counts.items():
            total = classes.setdefault(name, {"events": 0, "blocked": 0})
            total["events"] += tally["events"]
            total["blocked"] += tally["blocked"]
        for kind, count in result.alerts.items():
            alerts[kind] = alerts.get(kind, 0) + count
    if report.class_counts != classes:
        problems.append(f"report class totals {report.class_counts} != summed results {classes}")
    if report.alerts != alerts:
        problems.append(f"report alert totals {report.alerts} != summed results {alerts}")
    return problems

