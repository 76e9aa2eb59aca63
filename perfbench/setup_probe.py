"""Set-up time of one workload in a fresh interpreter.

Times what a user pays before the first grid point can start: importing
duosc, building the workload's SystemConfig, validating and converting it,
and solving for the normal modes.  Prints the seconds as the last line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    start = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from duosc.config import to_internal, validate_config
    from duosc.modes import solve_determinant

    w = workloads.build(sys.argv[1], int(sys.argv[2]))
    solve_determinant(to_internal(validate_config(w.config)))
    print(repr(perf_counter() - start))


if __name__ == "__main__":
    main()
