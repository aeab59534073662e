"""The preset benchmark grid, end to end, with machine-readable reports.

Each preset fixes a market shape (products, segments, assortment size,
network effects on or off) and runs generate -> train -> evaluate, writing
dataset, model, and report artifacts.  Sharing a master seed across runs
pairs the instances, which isolates the effect of a single toggle.
"""

import tempfile
from pathlib import Path

from assort_mnl import PRESET_NAMES, compare_runs, preset, run_case

print("available presets:", ", ".join(PRESET_NAMES))

with tempfile.TemporaryDirectory() as tmp:
    # Small record counts keep the demo quick; the defaults are count=500.
    on = run_case(preset("case1p1", count=120, master_seed=5, out_dir=str(Path(tmp) / "on")))
    off = run_case(preset("case1p2", count=120, master_seed=5, out_dir=str(Path(tmp) / "off")))

    # run_case returns the report document that it wrote as JSON.
    for rep in (on, off):
        ev, config = rep["evaluation"], rep["config"]
        nwe = "on" if config["spec"]["network_effects"] else "off"
        print(f"\n{config['case_id']} (network effects {nwe}):")
        print(f"  error rate {ev['error_rate']:.4f}, mean PRL {ev['mean_prl_percent']:.2f}%, "
              f"r_a mean {ev['r_a_mean']:.4f}")
        print(f"  reference magnitudes: {rep['reference']}")

    # Same seed means the same draws, so the delta is the network effect.
    summary = compare_runs(on, off)
    row = summary["metrics"]["r_a_mean"]
    print(f"\npaired comparison, r_a mean: {row['a']:.4f} -> {row['b']:.4f} "
          f"({row['direction']} without network effects)")

    harder = run_case(preset("case3p1", count=120, master_seed=5, out_dir=str(Path(tmp) / "big")))
    print(f"\ncase3p1 (5 products) error rate {harder['evaluation']['error_rate']:.4f} vs "
          f"case1p1 (2 products) {on['evaluation']['error_rate']:.4f}: "
          "prediction degrades as the menu grows")

    print("\nper-stage durations (s):",
          {k: round(v, 3) for k, v in harder["durations_s"].items()})
