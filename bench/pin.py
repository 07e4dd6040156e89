#!/usr/bin/env python3
"""Record the result fingerprints the benchmark checks its runs against.

Usage, from the repository root::

    python3 bench/pin.py                  # seeds 0-19, every workload
    python3 bench/pin.py --seeds 0,5 --workload engine-grid

Runs one round of each workload per seed and stores, in
``bench/pins.json``, the fingerprint of every operation's result under
the workload's pin key (its name plus a hash of its round sizes) and
the seed.  ``bench/run.py`` then fails any operation whose result
differs from its pin.  Re-pin only when a change is meant to alter
simulated results, and say so in that change.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from harness import BENCH_DIR, Meter, load_pins, require_repro, save_pins, seed_list


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help='e.g. "0-19" or "0,3"')
    parser.add_argument("--workload", action="append",
                        help="pin only these workloads (repeatable)")
    args = parser.parse_args()
    require_repro()
    from workloads import WORKLOADS

    pins = load_pins()
    for name, cls in WORKLOADS.items():
        if args.workload and name not in args.workload:
            continue
        workload = cls()
        for key in [k for k in pins if k.split(":")[0] == name]:
            if key != workload.pin_key():
                del pins[key]  # pins of the workload's earlier round sizes
        group = pins.setdefault(workload.pin_key(), {})
        for seed in seed_list(args.seeds):
            workload.build(seed)
            out = BENCH_DIR / "out"
            out.mkdir(parents=True, exist_ok=True)
            workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=out))
            try:
                workload.prepare(workdir)
                ops = {
                    k: op
                    for i in range(workload.sets)
                    for k, op in workload.run_round(
                        Meter(probing=False), index=i).ops.items()
                }
            finally:
                workload.close()
                shutil.rmtree(workdir, ignore_errors=True)
            errors = [f"{k}: {op.error}" for k, op in ops.items() if op.error]
            if errors:
                print(f"{name} seed {seed} failed:\n" + "\n".join(errors))
                return 1
            group[str(seed)] = {k: op.fp for k, op in ops.items()}
            print(f"pinned {name} seed {seed}: {len(ops)} operations")
            save_pins(pins)
    return 0


if __name__ == "__main__":
    sys.exit(main())
