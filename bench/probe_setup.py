"""Print the seconds this fresh process spends importing the package and
building one workload's inputs and references.

    python3 bench/probe_setup.py <workload> <seed>
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402

from workloads import WORKLOADS, load_program  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    load_program()
    WORKLOADS[name](seed)
    print(repr(perf_counter() - T0))


if __name__ == "__main__":
    main()
