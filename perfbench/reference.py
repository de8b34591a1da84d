"""Reference figures quoted in perfbench/README.md, at full desk scale.

    python3 perfbench/reference.py

Prints, for configs/desk.cfg with its own seed (0) and the random allocation
the CLI's ``--strategy random`` draws from that seed:

* the network-average outage of the multiple-mode allocation under the gc5
  engine and under pooled CF at the CLI's default 4096 grid points (the
  gc5-versus-CF gap of the greedy objective);
* for the single-mode allocation, the sensors whose pooled CF value at 4096
  points differs from a 2^15-point pooled pass by more than 0.01, and for
  sensor 430 its 4096-point value next to scalar CF at 2^16 points and
  Monte Carlo.

Takes about one minute on two cores.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mmtc_outage import (  # noqa: E402
    CharFnMethod,
    GcOutageEngine,
    batch_cf_outage,
    generate_scenario,
    load_scenario_config,
    monte_carlo_outage,
    outage_multi,
    random_allocate,
)


def main() -> int:
    config = load_scenario_config(ROOT / "configs" / "desk.cfg")
    scenario = generate_scenario(config)
    multiple = random_allocate(scenario, "multiple", config.seed)
    gc5 = GcOutageEngine(scenario).outage_vector(multiple).mean()
    cf = batch_cf_outage(multiple, scenario, 1 << 12).mean()
    print(f"random multiple, seed {config.seed}: gc5 average {gc5:.4f}, CF average {cf:.4f}")

    single = random_allocate(scenario, "single", config.seed)
    coarse = batch_cf_outage(single, scenario, 1 << 12)
    fine = batch_cf_outage(single, scenario, 1 << 15)
    gap = np.abs(coarse - fine)
    worst = int(np.argmax(gap))
    print(f"random single: {int(np.sum(gap > 0.01))} of {gap.size} sensors differ by > 0.01 "
          f"between 4096 and 32768 points; largest gap {gap[worst]:.4f} at sensor {worst}")
    sensor = 430
    scalar = outage_multi(single, scenario, sensor, CharFnMethod(1 << 16))
    mc = monte_carlo_outage(single, scenario, sensor, 50_000, 0)
    print(f"sensor {sensor}: pooled CF 4096 {coarse[sensor]:.4f}, scalar CF 2^16 {scalar:.4f}, "
          f"MC 5e4 {mc:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
