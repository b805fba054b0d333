#!/usr/bin/env python3
"""Where a training round spends its time, cut by cut.

Prices one device (500 samples, 1.3 TFLOPs, symmetric 10 KB/s link,
5 local epochs, 13 TFLOPs of server compute) across every cut of VGG19
and prints the four epoch terms plus model movement. This is the
single-user view of the objective the allocator minimizes: one call to
the latency kernel prices every cut at once.
"""

import numpy as np

import esfl

arch = esfl.load_builtin("vgg19")
rate = 10 * 1024.0  # 10 KB/s, in bytes/s
user = esfl.UserBatch.checked(n_samples=500, compute_flops=1.3e12, up=rate, down=rate,
                              epochs=5)
server_share = 13e12

print("per-cut round time, seconds (5 epochs, 10 KB/s, 1.3 TFLOPs device)")
header = f"{'cut':>4} {'t_up+t_down':>12} {'t_c x eps':>10} {'t_b+t_B x eps':>14} " \
         f"{'t_C x eps':>10} {'total':>12}"
print(header)
print("-" * len(header))
# cuts=None prices every cut: each term is a (users, cuts) array
terms = esfl.round_terms(user, arch, None, server_share)
columns = zip(
    (terms.t_up + terms.t_down)[0],
    5 * terms.t_c[0],
    5 * (terms.t_b + terms.t_B)[0],
    5 * terms.t_C[0],
    terms.total[0],
)
for l, (model_t, comp_t, comm_t, srv_t, total) in enumerate(columns, start=1):
    print(f"{l:>4} {model_t:>12.1f} {comp_t:>10.2f} {comm_t:>14.1f} "
          f"{srv_t:>10.2f} {total:>12.1f}")
best_l = int(np.argmin(terms.total[0])) + 1
best_total = terms.total[0, best_l - 1]

print(f"\nfastest cut for this device: layer {best_l} ({best_total:.1f} s)")

print("\nnote the regime: at KB/s-scale rates the communication columns")
print("dwarf both compute columns, so the cut decision is driven almost")
print("entirely by the model-transfer vs activation-traffic trade")
