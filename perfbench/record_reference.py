#!/usr/bin/env python3
"""Record reference/<workload>.json: the warm-up batch's checked values.

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference (the package as first
imported); a later commit that changes outputs on purpose re-records and
says why.  Each file holds one summary per size (see checks.summarize).
"""

import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, run.SRC)
from checks import REFERENCE_DIR, summarize  # noqa: E402
from lifshitz_lab.config import parse_config  # noqa: E402
from lifshitz_lab.experiments import run as run_driver  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for wl in WORKLOADS.values():
        doc = {}
        for size in ("full", "smoke"):
            out = os.path.join(run.STATE, f"reference-{size}")
            result = run_driver(parse_config(wl.config(size, REFERENCE_SEED)), out_dir=out,
                                threads=1)
            if result.exit_code != 0:
                raise RuntimeError(f"{wl.name} {size}: exit code {result.exit_code}")
            doc[size] = summarize(wl, size, out)
            shutil.rmtree(out)
        with open(os.path.join(REFERENCE_DIR, f"{wl.name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {wl.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
