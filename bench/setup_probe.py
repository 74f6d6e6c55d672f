"""One fresh process doing a workload's set-up: imports, scenario load and
initialize_iterate. Prints ``ready`` when done, so the parent can time the
whole start-up a user pays on every CLI run.

    python3 bench/setup_probe.py <workload> <seed>
"""
import sys

import harness

if __name__ == "__main__":
    harness.prepare(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
