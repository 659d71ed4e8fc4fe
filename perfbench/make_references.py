#!/usr/bin/env python3
"""Write perfbench/references.json: the values the correctness check expects.

Run from the root of a checkout, on a commit whose results are trusted:

    python3 perfbench/make_references.py

It runs every workload's configs once for each model seed in
``workloads.REFERENCE_SEEDS`` on the default data seed and stores each
run's metrics and full loss history.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qweather.bench import run  # noqa: E402
from workloads import REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, configs, reference_entry, run_key  # noqa: E402


def main():
    references = {}
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            for cfg in configs(workload, model_seed=seed):
                references[run_key(cfg)] = reference_entry(run(cfg).as_dict())
                print(run_key(cfg), file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
