"""Seeded inputs of every workload.

The program receives only what is built here: a household's packets, the
signed proof wires the system's own phone and app produce for its manual
interactions, injected attack packets, and fleet specs.  The same seed
gives the same inputs (the pairing key is fresh per system, so proof
wires differ in their signature bytes only).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import FiatSystem
from repro.fleet import FleetSpec, HomeSpec, home_seed
from repro.net import Packet
from repro.testbed import (
    APP_PACKAGES,
    TESTBED,
    AccountCompromiseAttack,
    Household,
    HouseholdConfig,
)
from repro.util import spawn_seed

#: All ten testbed devices: ML classifier training runs beside rule devices.
DEVICES: Tuple[str, ...] = tuple(TESTBED)
#: Simulated household time replayed by the proxy workloads.
HOUSEHOLD_S = 6 * 3600.0
#: A manual command's proof leaves the phone this long before the command,
#: as in :meth:`repro.core.FiatSystem.run_accuracy`.
PROOF_LEAD_S = 0.5
#: Account-compromise attacks aimed at per device (fewer when the
#: device is rarely quiet long enough).
ATTACKS_PER_DEVICE = 4
#: Quiet time an attack keeps from the device's own packets, seconds
#: (more than the 5 s event gap, so it opens an event of its own).
ATTACK_QUIET_S = 10.0
#: Minimum spacing of two attacks on one device, seconds (more than the
#: 300 s lockout window, so attacks alone never lock a device out).
ATTACK_SPACING_S = 600.0


@dataclass
class ProxyDay:
    """One household's replay: packet segments separated by proofs."""

    #: ``steps[i] = (packets, proof)``: the packets, in timestamp order,
    #: then the proof ``(wire, arrival time)`` that follows them (``None``
    #: after the last segment)
    steps: List[Tuple[List[Packet], Optional[Tuple[bytes, float]]]]
    n_packets: int
    n_proofs: int
    #: attack event id -> device
    attacks: Dict[str, str] = field(default_factory=dict)
    duration_s: float = HOUSEHOLD_S


def build_day(system: FiatSystem, seed: int, duration_s: float, attacks_per_device: int) -> ProxyDay:
    """Simulate ``duration_s`` of the household of ``system`` plus its proofs and attacks."""
    household = Household(
        [p.name for p in system.profiles],
        HouseholdConfig(duration_s=duration_s, seed=seed),
        cloud=system.cloud,
    )
    sim = household.simulate()
    packets = list(sim.trace)

    # A signed proof just before each scripted manual interaction.
    proofs: List[Tuple[float, bytes, str]] = []
    for window in sim.log.interactions:
        sent = window.start + 1.0 - PROOF_LEAD_S
        interaction = system.phone.interact(window.device, sent, human=True)
        attempt = system.app.authenticate(interaction, sent)
        arrival = sent + attempt.components["transport"] / 1000.0
        proofs.append((arrival, attempt.wire, window.device))
    proofs.sort(key=lambda item: item[0])

    attacks = _place_attacks(system, seed, packets, proofs, duration_s, attacks_per_device)
    for event in attacks:
        packets.extend(event.packets)
    packets.sort(key=attrgetter("timestamp"))

    stamps = [p.timestamp for p in packets]
    steps: List[Tuple[List[Packet], Optional[Tuple[bytes, float]]]] = []
    start = 0
    for arrival, wire, _ in proofs:
        end = bisect_left(stamps, arrival, lo=start)
        steps.append((packets[start:end], (wire, arrival)))
        start = end
    steps.append((packets[start:], None))
    return ProxyDay(
        steps=steps,
        n_packets=len(packets),
        n_proofs=len(proofs),
        attacks={event.packets[0].event_id: event.device for event in attacks},
        duration_s=duration_s,
    )


def _place_attacks(system, seed, packets, proofs, duration_s, per_device):
    """Account-compromise attacks outside every proof's validity window.

    Each attack lands where its device is quiet and where no proof for
    the device's companion app is valid, so FIAT must judge it alone.
    """
    config = system.config
    rng = np.random.default_rng(spawn_seed(seed, "perfbench", "attack-times"))
    attacker = AccountCompromiseAttack(
        system.cloud, seed=spawn_seed(seed, "perfbench", "attacker")
    )
    by_device: Dict[str, List[float]] = {}
    for packet in packets:
        by_device.setdefault(packet.device, []).append(packet.timestamp)
    proof_times: Dict[str, List[float]] = {}
    for arrival, _, device in proofs:
        proof_times.setdefault(APP_PACKAGES.get(device, ""), []).append(arrival)

    def clear(times: List[float], low: float, high: float) -> bool:
        i = bisect_left(times, low)
        return i == len(times) or times[i] > high

    placed = []
    earliest = config.bootstrap_s + 120.0
    latest = duration_s - 120.0
    for profile in system.profiles:
        device = profile.name
        own = sorted(by_device.get(device, []))
        app_proofs = proof_times.get(APP_PACKAGES.get(device, ""), [])
        starts: List[float] = []
        for _ in range(400):
            if len(starts) == per_device:
                break
            t = float(rng.uniform(earliest, latest))
            if any(abs(t - s) < ATTACK_SPACING_S for s in starts):
                continue
            event = attacker.launch(device, t)
            end = event.packets[-1].timestamp
            if clear(own, t - ATTACK_QUIET_S, end + ATTACK_QUIET_S) and clear(
                app_proofs, t - config.human_validity_s - ATTACK_QUIET_S, end + ATTACK_QUIET_S
            ):
                starts.append(t)
                placed.append(event)
    return placed


def fleet_block(seed: int, index: int) -> FleetSpec:
    """Block ``index`` of the seeded fleet: one home per ML-classified device.

    Each home pairs one of the seven ML devices with one of the three
    rule devices, so classifier training runs beside a rule device in
    every home and every block has the same make-up; the seed draws the
    pairing, the order and every home's own seed.  Workload volumes are
    the :class:`~repro.fleet.HomeSpec` defaults.
    """
    rng = np.random.default_rng(spawn_seed(seed, "perfbench", "fleet", index))
    ml = [name for name in DEVICES if not TESTBED[name].uses_simple_rules]
    rules = [name for name in DEVICES if TESTBED[name].uses_simple_rules]
    ml = [ml[i] for i in rng.permutation(len(ml))]
    offset = int(rng.integers(len(rules)))
    homes = []
    for i, device in enumerate(ml):
        home_id = f"home-{index:03d}-{i}"
        homes.append(
            HomeSpec(
                home_id=home_id,
                devices=tuple(sorted((device, rules[(offset + i) % len(rules)]))),
                seed=home_seed(seed, home_id),
            )
        )
    return FleetSpec(name=f"perfbench-fleet-{index}", seed=seed, homes=tuple(homes))
