#!/usr/bin/env python3
"""Run the full-scale configuration (M=2000 sensors, K=10 CNs, 10x10 beams).

The multiple-resource greedy search (`allocate --mode multiple`) took
36.5 s on a 2-CPU host (Python 3.11, numpy 2.4).  Pass --skip-multiple
for a quicker single-resource-only run.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mmtc_outage import cli

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(ROOT / "configs" / "tab2.cfg"))
    parser.add_argument("--out", default="results/full", metavar="DIR")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-multiple", action="store_true",
                        help="skip the slow multiple-resource runs")
    args = parser.parse_args()

    shared = ["--config", args.config, "--seed", str(args.seed)]

    def written(mode: str) -> str:
        # the reports read the greedy allocation that allocate_<mode> wrote
        return str(Path(args.out) / f"allocate_{mode}" / "allocation.csv")

    runs = [
        ("scenario", ["gen"]),
        ("cdf_compare", ["approx", "--sensor", "0", "--grid-points", "4096"]),
        ("allocate_single", ["allocate", "--mode", "single"]),
        ("report_single", ["report", "--allocation", written("single"),
                           "--method", "cf"]),
        ("outage_cdf_single", ["sweep", "outage_cdf", "--mode", "single"]),
    ]
    if not args.skip_multiple:
        runs += [
            ("allocate_multiple", ["allocate", "--mode", "multiple"]),
            ("report_multiple", ["report", "--allocation", written("multiple"),
                                 "--method", "cf"]),
            ("outage_cdf_multiple", ["sweep", "outage_cdf", "--mode", "multiple"]),
        ]
    for name, argv in runs:
        out_dir = Path(args.out) / name
        tic = time.perf_counter()
        code = cli.main([*argv, *shared, "--out", str(out_dir)])
        if code != 0:
            print(f"{name}: FAILED (exit {code})", file=sys.stderr)
            return code
        print(f"{name}: done in {time.perf_counter() - tic:.1f}s -> {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
