"""Fix an IR-drop violation by greedy pad placement.

    python examples/fix_ir_drop.py

Takes an irregular design and asks the greedy optimiser to claw back 15 %
of the worst-case drop by adding pads (each round of candidates is one
batch of one-constraint previews against one shared factorisation),
reporting the drop trajectory.
"""

from __future__ import annotations

from repro.data.synthetic import generate_design, make_real_spec
from repro.opt.pad_placement import greedy_pad_placement
from repro.solvers.powerrush import PowerRushSimulator


def main() -> None:
    design = generate_design(make_real_spec("violating", seed=77, pixels=32))

    report = PowerRushSimulator(tol=1e-10).simulate_grid(design.grid)
    budget = 0.85 * report.worst_drop()  # claw back 15 % of the worst case
    print(f"Design {design.name!r}: worst drop "
          f"{report.worst_drop() * 1e3:.2f} mV; target budget "
          f"{budget * 1e3:.2f} mV (VIOLATION)")

    print("\nRunning greedy pad placement (each candidate = one rank-1 "
          "constraint preview) ...")
    result = greedy_pad_placement(
        design.netlist,
        budget_volts=budget,
        max_new_pads=4,
        max_candidates=12,
    )
    print("\nWorst-drop trajectory (mV):",
          [round(v * 1e3, 2) for v in result.worst_drop_history])
    for i, pad in enumerate(result.added_pads, start=1):
        print(f"  pad {i}: {pad}")
    verdict = "met" if result.met_budget else "NOT met"
    print(f"\nBudget {verdict} after {len(result.added_pads)} new pad(s); "
          f"total improvement {result.improvement * 1e3:.2f} mV.")


if __name__ == "__main__":
    main()
