"""The start of a fleet command, in the fresh interpreter this script runs in.

Imports the package the way ``fiat-repro fleet`` does, generates the
seeded fleet spec and initialises a durable state dir (checkpoint
journal and telemetry channel).  The ``fleet_cold`` workload times a
run of this script as its set-up.

Usage: ``python perfbench/fleet_start.py <seed> <state_dir>``
"""

import os
import sys


def main(seed: int, state_dir: str) -> None:
    os.fsync = lambda fd: None  # as in the measuring process: no disk-flush waits
    import repro.cli  # noqa: F401  (the fleet command's own import)
    from repro.fleet import FleetCheckpoint, TelemetryWriter
    from repro.fleet.telemetry import telemetry_dir_for

    from inputs import fleet_block

    source = fleet_block(seed, 0).stream()
    checkpoint = FleetCheckpoint(
        state_dir, name=source.name, seed=source.seed, spec_digest=source.digest
    )
    checkpoint.start_fresh()
    checkpoint.close()
    writer = TelemetryWriter(telemetry_dir_for(state_dir))
    writer.emit("run-start", fleet=source.name, planned=source.n_homes)
    writer.close()


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
