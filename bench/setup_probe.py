"""Time the set-up every `spprox run` pays before its first cell.

Usage: python3 bench/setup_probe.py CONFIG

Imports the whole package (through `spprox.cli`, as the command does), then
generates the configured problem, including its reference-optimum solve.
Prints one JSON line with the set-up time and the problem's stored x_star.
"""

import json
import sys
import time


def main(config: str) -> None:
    t0 = time.perf_counter()
    import spprox.cli  # noqa: F401  (the import a `spprox run` pays)
    from spprox.harness import parse_config
    from spprox.problems import generate

    problem = generate(parse_config(config).spec)
    setup_s = time.perf_counter() - t0
    x_star = None if problem.x_star is None else problem.x_star.tolist()
    print(json.dumps({"setup_s": setup_s, "x_star": x_star}))


if __name__ == "__main__":
    main(sys.argv[1])
