#!/usr/bin/env python3
"""Closed-form combination of frozen components.

Builds a small ensemble whose members approximate a common target at
graded quality, solves the normal equations for the optimal mixing
weights, and shows that the combination beats every single member.
"""

import numpy as np

import compnet as cn


def main():
    spec = cn.SyntheticTaskSpec(
        n=240,
        d=6,
        m=1,
        true_function="mlp-teacher",
        noise_sd=0.05,
        component_quality=(0.15, 0.25, 0.4),
        seed=7,
    )
    data, comps = cn.generate_synthetic(spec)
    x_train = data.inputs[data.train_idx]
    y_train = data.labels[data.train_idx].ravel()
    cols = np.column_stack([c.forward(x_train).ravel() for c in comps])

    print("per-component training RMSE:")
    for c, loss in zip(comps, cn.component_losses(cols, y_train)):
        print(f"  {c.id}: {np.sqrt(loss):.4f}")

    report = cn.check_assumptions(cols, y_train)
    print(
        f"\nassumption checks: A1 (independent columns) {report.a1.holds}, "
        f"A2 (no perfect component) {report.a2.holds}, "
        f"A4 (K < 2*sqrt(N)-1 = {report.a4.bound:.2f}) {report.a4.holds}"
    )

    theta = cn.solve_theta_star(cn.build_gram(cols, y_train))
    print(f"\noptimal weights (bias first): {np.round(theta, 4)}")
    combo = cn.combination_loss(theta, cols, y_train)
    best = float(np.min(cn.component_losses(cols, y_train)))
    print(f"combination RMSE {np.sqrt(combo):.4f} vs best single {np.sqrt(best):.4f}")
    assert combo <= best + 1e-9

    # the same weights, expressed as a composite network node
    refs = [cn.ComponentRef(f"r{i}", c.id) for i, c in enumerate(comps)]
    net = cn.CompositeNetwork(
        refs + [cn.Combine("mix", [r.id for r in refs], theta)], "mix"
    )
    print(f"as a network: train RMSE {np.sqrt(cn.loss_l2(net, cn.registry(comps), data)):.4f}")
    layout = cn.parameter_layout(net, cn.registry(comps))
    print(f"parameters: {layout.size} trainable / {layout.total} total")


if __name__ == "__main__":
    main()
