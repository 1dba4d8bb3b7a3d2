"""Record the reference outputs that bench/run.py checks against.

Usage, from the root of a checkout: python3 bench/record_refs.py [WORKLOAD...]

For each workload and each of the VARIANTS seed sets, runs `spprox run
--workers 1` once and stores every cell's CSV fingerprint (per-column sum of
finite values, finite count and last value), the kappa estimate when the
workload probes it, and the problem's stored x_star, in bench/refs/.  The
committed files were recorded from the seed code; re-record only on purpose,
since the references are what later changes are checked against.
"""

import json
import sys

import run as bench


def record(workload: str) -> dict:
    workdir = bench.OUT / "refs" / workload
    template = bench.gen_config(workload)
    variants = {}
    x_star = None
    for variant in range(bench.VARIANTS):
        config = bench.write_config(workload, template, variant,
                                    workdir / "config.ini")
        if variant == 0:
            x_star = bench.probe_setup(config)["x_star"]
        outdir = workdir / "out"
        _, code, _, _ = bench.run_spprox(config, 1, outdir)
        if code != 0:
            raise SystemExit(f"{workload} variant {variant}: exit {code}")
        cells = {p.stem: bench.fingerprint(p)
                 for p in sorted(outdir.glob("*.csv"))}
        entry = {"cells": cells}
        meta = json.loads(next(outdir.glob("*.meta.json")).read_text())
        if "kappa_hat_lower_bound" in meta:
            entry["kappa_hat_lower_bound"] = meta["kappa_hat_lower_bound"]
        variants[str(variant)] = entry
        print(f"{workload} variant {variant}: {len(cells)} cells", flush=True)
    return {"rtol": bench.RTOL, "atol": bench.ATOL,
            "environment": bench.environment(),
            "x_star": x_star, "variants": variants}


def main(names) -> None:
    bench.REFS.mkdir(exist_ok=True)
    for workload in names or sorted(bench.WORKLOADS):
        refs = record(workload)
        (bench.REFS / f"{workload}.json").write_text(
            json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
