#!/usr/bin/env python3
"""Alternation iterations to the fixed point, by population scale.

The alternating planner is run on freshly drawn user sets of 100 to 800
users for each resource-limitation scenario, three repetitions per cell,
and the iteration counts to the stalled compute vector are tabulated.
The count barely moves with scale: the cut pass is a per-user argmin and
the resource pass a single Newton solve, so the coupling resolves in a
handful of sweeps even at 800 users. The repetitions of a cell are
planned together, as one batch of rounds.
"""

import esfl

arch = esfl.load_builtin("vgg19")
cells = esfl.convergence_study(arch, scales=(100, 200, 400, 800),
                               repetitions=3, seed=0)

print(f"{'scenario':>8} {'users':>6} {'iterations':>12} {'max':>4}")
print("-" * 36)
for cell in cells:
    its = ",".join(str(i) for i in cell.iterations)
    print(f"{cell.scenario:>8} {cell.scale:>6} {its:>12} {cell.max_iterations:>4}")

worst = max(cell.max_iterations for cell in cells)
print(f"\nworst case across all cells: {worst} iterations")
