#!/usr/bin/env python3
"""How the server budget gets divided: finish-time equalization.

With cuts fixed, each user's round time is a_i / C_i + b_i. The optimal
min-max division funds every user exactly to a common finishing level K
(users whose cut leaves the server no work get nothing). This script
shows the equal-split times, the equalized times, and the level found by
the Newton resource pass, then verifies the greedy water-filling intuition
numerically.
"""

import numpy as np

import esfl

rng = np.random.default_rng(42)
arch = esfl.load_builtin("vgg19")

users = [
    esfl.UserProfile(
        user_id=i,
        n_samples=float(rng.choice([200, 400, 600, 800])),
        compute_flops=float(rng.choice([0.65, 1.3, 2.6, 4.55])) * 1e12,
        rates=esfl.link_rates("direct", direct_kbps=8000.0),
        epochs=5,
    )
    for i in range(6)
]
cuts = [5] * len(users)  # shared cut isolates the compute-division effect
c_total = 4e12

a, b = esfl.server_demand_terms(users, cuts, arch)
equal = np.full(len(users), c_total / len(users))
compute, level = esfl.equalize_min_max(a, b, c_total)

print(f"budget {c_total / 1e12:.1f} TFLOPs across {len(users)} users, fixed cuts {cuts}\n")
print(f"{'user':>4} {'b_i (s)':>10} {'equal-split time':>17} {'equalized time':>15} "
      f"{'C_i (TFLOPs)':>13}")
print("-" * 64)
for i in range(len(users)):
    t_eq_split = b[i] + a[i] / equal[i]
    t_opt = b[i] + (a[i] / compute[i] if compute[i] > 0 else 0.0)
    print(f"{i:>4} {b[i]:>10.2f} {t_eq_split:>17.2f} {t_opt:>15.2f} "
          f"{compute[i] / 1e12:>13.3f}")

print(f"\nequalized level K = {level:.2f} s")
print(f"equal-split straggler: {np.max(b + a / equal):.2f} s")
print(f"budget used: {compute.sum() / c_total:.9f} of total")

# a coarse greedy hand-out reproduces the same level
quanta = 5000
greedy = np.zeros_like(a)
times = np.where(a > 0, np.inf, b)
for _ in range(quanta):
    i = int(np.argmax(np.where(a > 0, times, -np.inf)))
    greedy[i] += c_total / quanta
    times[i] = b[i] + a[i] / greedy[i]
print(f"greedy water-filling level ({quanta} quanta): {times.max():.2f} s "
      f"(Newton: {level:.2f} s)")
