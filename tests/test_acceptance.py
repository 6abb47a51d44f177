"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
enforces the stated runtime budget.  Tolerances are pinned here and
nowhere else.
"""

import json
import time

import numpy as np
import pytest

import compnet as cn
from compnet.cli import main, replay_manifest


def _line(num, ok, dt, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} in {dt:.2f}s (budget {budget:.0f}s): {detail}")


def _cg_oracle(cols, y, tol=1e-13, max_iter=200):
    """Iterative least-squares reference: conjugate-gradient descent on
    the squared-error objective, run until the gradient is negligible.
    Never forms or inverts the inner-product matrix."""
    n = y.size
    full = np.column_stack([np.ones(n), cols])
    theta = np.zeros(full.shape[1])
    r = full.T @ (y - full @ theta) * (2.0 / n)
    p = r.copy()
    rr = r @ r
    for _ in range(max_iter):
        ap = full.T @ (full @ p) * (2.0 / n)
        alpha = rr / (p @ ap)
        theta = theta + alpha * p
        r = r - alpha * ap
        rr_new = r @ r
        if np.sqrt(rr_new) < tol:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    return theta


def test_criterion_1_closed_form_optimality():
    """Loss(theta*) <= min component loss on 100/100 seeded instances and
    theta* matches an independent iterative solver within 1e-6."""
    budget = 5.0
    t0 = time.time()
    wins = 0
    max_coord_diff = 0.0
    rng = np.random.default_rng(2024)
    instances = 0
    while instances < 100:
        y = rng.standard_normal(64)
        cols = y[:, None] + 0.6 * rng.standard_normal((64, 3))
        rep = cn.check_assumptions(cols, y)
        if not (rep.a1.holds and rep.a2.holds):
            continue
        instances += 1
        theta = cn.solve_theta_star(cn.build_gram(cols, y))
        loss = cn.combination_loss(theta, cols, y)
        best = min(
            float(np.min(cn.component_losses(cols, y))), float(np.mean((1.0 - y) ** 2))
        )
        if loss <= best + 1e-9:
            wins += 1
        oracle = _cg_oracle(cols, y)
        max_coord_diff = max(max_coord_diff, float(np.max(np.abs(theta - oracle))))
    dt = time.time() - t0
    ok = wins == 100 and max_coord_diff < 1e-6 and dt < budget
    _line(1, ok, dt, budget, f"{wins}/100 optimal, max |theta - oracle| {max_coord_diff:.2e}")
    assert wins == 100
    assert max_coord_diff < 1e-6
    assert dt < budget


def test_criterion_2_strict_improvement_bound():
    budget = 30.0
    t0 = time.time()
    report = cn.verify_strict_improvement(cn.TrialSpec(n=400, k=3, trials=1000, seed=11))
    dt = time.time() - t0
    ok = report.empirical_rate >= 0.8 and dt < budget
    _line(2, ok, dt, budget, f"rate {report.empirical_rate:.4f} >= bound {report.bound:.3f}")
    assert report.bound == pytest.approx(0.8)
    assert report.empirical_rate >= 0.8
    assert report.empirical_rate >= 0.95  # expected observed headroom
    assert dt < budget


def test_criterion_3_two_component_bound():
    budget = 10.0
    t0 = time.time()
    report = cn.verify_add_width(cn.TrialSpec(n=100, k=2, trials=1000, seed=12))
    dt = time.time() - t0
    ok = report.empirical_rate >= 0.8 and dt < budget
    _line(3, ok, dt, budget, f"rate {report.empirical_rate:.4f} >= bound {report.bound:.3f}")
    assert report.bound == pytest.approx(0.8)
    assert report.empirical_rate >= 0.8
    assert dt < budget


def test_criterion_4_depth_compounding_bound():
    budget = 300.0
    t0 = time.time()
    report = cn.verify_depth_compounding(
        cn.TrialSpec(n=400, k=3, trials=200, seed=13), h=3
    )
    dt = time.time() - t0
    ok = report.empirical_rate >= 0.512 and dt < budget
    _line(4, ok, dt, budget, f"rate {report.empirical_rate:.4f} >= bound {report.bound:.4f}")
    assert report.bound == pytest.approx(0.512)
    assert report.empirical_rate >= 0.512
    assert dt < budget


def test_criterion_5_scaled_activation():
    """Wide logistic recipe: pointwise error under eps for gamma=1e-5*eps
    in every trial, and a margin-approved wrapper beats the best
    component on measured losses."""
    budget = 10.0
    t0 = time.time()
    worst = 0.0
    ok_pointwise = True
    for trial in range(10):
        rng = np.random.default_rng(500 + trial)
        g = rng.uniform(-1000.0, 1000.0, size=400)
        for eps in (1.0, 0.1, 0.01):
            w = cn.construct_wrapper(g, cn.LOGISTIC, eps, gamma=1e-5 * eps)
            err = float(np.max(np.abs(np.asarray(cn.apply_wrapper(w, g)) - g)))
            worst = max(worst, err / eps)
            if not err < eps:
                ok_pointwise = False

    margin_wins = 0
    for trial in range(10):
        rng = np.random.default_rng(900 + trial)
        y = rng.standard_normal(128)
        cols = y[:, None] + 0.5 * rng.standard_normal((128, 3))
        theta = cn.solve_theta_star(cn.build_gram(cols, y))
        g = cn.predict(theta, cols)
        best = float(np.min(cn.component_losses(cols, y)))
        g_loss = float(np.mean((g - y) ** 2))
        probe = cn.construct_wrapper(g, cn.LOGISTIC, 1e-3)
        needed = cn.verify_margin(probe, g, y, best, g_star_loss=g_loss).epsilon_needed
        w = cn.construct_wrapper(g, cn.LOGISTIC, min(1.0, needed))
        rep = cn.verify_margin(w, g, y, best, g_star_loss=g_loss)
        wrapped_loss = float(np.mean((np.asarray(cn.apply_wrapper(w, g)) - y) ** 2))
        if rep.ok and wrapped_loss < best:
            margin_wins += 1
    dt = time.time() - t0
    ok = ok_pointwise and margin_wins == 10 and dt < budget
    _line(
        5, ok, dt, budget,
        f"max err/eps {worst:.2e}, margin-approved wins {margin_wins}/10",
    )
    assert ok_pointwise
    assert margin_wins == 10
    assert dt < budget


def test_criterion_6_trainer_correctness():
    budget = 60.0
    t0 = time.time()
    spec = cn.SyntheticTaskSpec(
        n=160, d=5, m=1, true_function="mlp-teacher", noise_sd=0.02,
        component_quality=(0.1, 0.2, 0.3), seed=42,
    )
    data, comps = cn.generate_synthetic(spec)
    reg = cn.registry(comps)
    reg["f3"] = reg["f3"].opened_copy()

    refs = [cn.ComponentRef(f"r{i}", c.id) for i, c in enumerate(comps)]
    inner = cn.Combine("inner", [r.id for r in refs], np.array([0.1, 0.4, 0.3, 0.3]))
    act = cn.Activate("act", "inner", cn.SL)
    outer = cn.Combine("outer", ["act"], np.array([0.05, 1.1]))
    net = cn.CompositeNetwork(refs + [inner, act, outer], "outer")

    # (i) gradient vs central differences on 20 random parameters
    x = data.inputs[data.train_idx][:24]
    y = data.labels[data.train_idx][:24]
    layout = cn.parameter_layout(net, reg)
    grad = cn.gradients(net, reg, x, y)
    w0 = cn.get_parameters(net, reg, layout)

    def loss_at(w):
        cn.set_parameters(net, reg, layout, w)
        pred = cn.evaluate(net, reg, x)
        return float(np.sum((pred - y) ** 2) / x.shape[0])

    grad_ok = True
    worst_rel = 0.0
    picks = np.random.default_rng(7).choice(layout.size, size=20, replace=False)
    for i in picks:
        wp, wm = w0.copy(), w0.copy()
        wp[i] += 1e-5
        wm[i] -= 1e-5
        num = (loss_at(wp) - loss_at(wm)) / 2e-5
        rel = abs(grad[i] - num) / max(1e-7, abs(num))
        worst_rel = max(worst_rel, rel)
        if rel > 1e-5 and abs(grad[i] - num) > 1e-7:
            grad_ok = False
    cn.set_parameters(net, reg, layout, w0)

    # (ii) trained linear composite vs closed form
    cols = np.column_stack([c.forward(data.inputs[data.train_idx]).ravel() for c in comps])
    ytr = data.labels[data.train_idx].ravel()
    optimum = cn.combination_loss(cn.solve_theta_star(cn.build_gram(cols, ytr)), cols, ytr)
    mix = cn.CompositeNetwork(
        refs + [cn.Combine("mix", [r.id for r in refs], np.array([0.0, 1 / 3, 1 / 3, 1 / 3]))],
        "mix",
    )
    trained = cn.train(mix, cn.registry(comps), data, cn.TrainConfig(seed=6))
    gap = trained.history[-1].train_loss - optimum

    # (iii) frozen pre-trained weights byte-identical through training
    before = {c.id: json.dumps(c.to_dict(), sort_keys=True).encode() for c in comps}
    sandwich_result = cn.train(net, reg, data, cn.TrainConfig(max_epochs=40, seed=8))
    frozen_ok = all(
        json.dumps(sandwich_result.components[cid].to_dict(), sort_keys=True).encode()
        == before[cid]
        for cid in ("f1", "f2")  # f3 was opened on purpose
    )
    dt = time.time() - t0
    ok = grad_ok and abs(gap) < 1e-4 and frozen_ok and dt < budget
    _line(
        6, ok, dt, budget,
        f"grad rel err {worst_rel:.2e}, closed-form gap {gap:.2e}, frozen bytes intact {frozen_ok}",
    )
    assert grad_ok
    assert abs(gap) < 1e-4
    assert frozen_ok
    assert dt < budget


def _front_runner_is_argmin(report) -> bool:
    for step in report.steps:
        values = [
            c.train_loss if report.selection_metric == "train_loss" else c.test_loss
            for c in step.candidates
        ]
        front = [
            c for c in step.candidates if c.description == step.front_runner
        ]
        if not front:
            return False
        front_value = (
            front[0].train_loss
            if report.selection_metric == "train_loss"
            else front[0].test_loss
        )
        if front_value != min(values):
            return False
    return True


def test_criterion_7_construction_suite():
    """(a) uses validation selection (the step tables mark their winners
    on the testing column); (b) compares train losses under train-loss
    selection, where the searches share per-candidate seeds."""
    budget = 600.0
    t0 = time.time()
    runs = 50
    dbcn_beats = 0
    bbcn_beats = 0
    superset_ok = 0
    front_runner_ok = True
    prune_ok = True
    for i in range(runs):
        spec = cn.SyntheticTaskSpec(
            n=240, d=5, m=1, true_function="mlp-teacher", noise_sd=0.02,
            component_quality=(0.1, 0.18, 0.28, 0.4, 0.55), seed=1000 + i,
        )
        data, comps = cn.generate_synthetic(spec)
        tc = cn.TrainConfig(max_epochs=60, early_stop_patience=15, seed=i)
        val_cfg = cn.ConstructionConfig(k0=4, train_cfg=tc, selection_metric="validation_loss")
        train_cfg = cn.ConstructionConfig(k0=4, train_cfg=tc, selection_metric="train_loss")

        rep_dv = cn.dbcn(comps, data, val_cfg)
        rep_bv = cn.bbcn(comps, data, val_cfg)
        rep_dt = cn.dbcn(comps, data, train_cfg)
        chain_cfg = cn.ConstructionConfig(k0=1, train_cfg=tc, selection_metric="train_loss")
        rep_xt = cn.exhaustive(comps, data, chain_cfg)
        rep_inf = cn.dbcn(
            comps,
            data,
            cn.ConstructionConfig(k0=4, delta=float("inf"), train_cfg=tc),
        )

        best_single_test = min(cn.component_loss(c, data, "test") for c in comps)
        if rep_dv.final_test_loss <= best_single_test:
            dbcn_beats += 1
        if rep_bv.final_test_loss <= best_single_test:
            bbcn_beats += 1
        if rep_xt.final_train_loss <= rep_dt.final_train_loss + 1e-9:
            superset_ok += 1
        for rep in (rep_dv, rep_bv, rep_dt, rep_xt):
            if not _front_runner_is_argmin(rep):
                front_runner_ok = False
        if rep_inf.final_depth != 1:
            prune_ok = False
    dt = time.time() - t0
    ok = (
        dbcn_beats >= 45
        and bbcn_beats >= 45
        and superset_ok == runs
        and front_runner_ok
        and prune_ok
        and dt < budget
    )
    _line(
        7, ok, dt, budget,
        f"dbcn beats best single {dbcn_beats}/50, bbcn {bbcn_beats}/50, "
        f"exhaustive<=dbcn {superset_ok}/50, front-runner argmin {front_runner_ok}, "
        f"delta=inf depth-1 {prune_ok}",
    )
    assert dbcn_beats >= 45
    assert bbcn_beats >= 45
    assert superset_ok == runs
    assert front_runner_ok
    assert prune_ok
    assert dt < budget


def test_criterion_8_data_plumbing(tmp_path):
    budget = 60.0
    t0 = time.time()

    def brute(grid, k):
        out = grid.copy()
        known = [
            (r, c)
            for r in range(grid.shape[0])
            for c in range(grid.shape[1])
            if np.isfinite(grid[r, c])
        ]
        for r in range(grid.shape[0]):
            for c in range(grid.shape[1]):
                if np.isfinite(grid[r, c]):
                    continue
                ranked = sorted(known, key=lambda rc: ((rc[0] - r) ** 2 + (rc[1] - c) ** 2, rc))
                out[r, c] = float(np.mean([grid[rc] for rc in ranked[:k]]))
        return out

    rng = np.random.default_rng(77)
    impute_ok = 0
    grids = 0
    while grids < 100:
        g = rng.normal(size=(5, 5))
        g[rng.random((5, 5)) < 0.35] = np.nan
        if np.isfinite(g).sum() < 4:
            continue
        grids += 1
        if np.array_equal(cn.knn_impute(g, k=4), brute(g, 4)):
            impute_ok += 1

    v = rng.normal(size=7)
    hourly = cn.interpolate_time(v, step=6)
    ticks_ok = all(hourly[6 * i] == v[i] for i in range(7))

    spec = cn.SyntheticTaskSpec(n=300, d=4, m=1, component_quality=(0.2,), seed=5)
    data, comps = cn.generate_synthetic(spec)
    p = tmp_path / "roundtrip.csv"
    cn.save_csv(p, data)
    again = cn.load_csv(p, [f"x{i + 1}" for i in range(4)], ["y1"])
    net = cn.single_component_network(comps[0].id)
    reg = cn.registry(comps)
    loss_gap = abs(
        cn.loss_l2(net, reg, data, "train") - cn.loss_l2(net, reg, again, "train")
    )
    dt = time.time() - t0
    ok = impute_ok == 100 and ticks_ok and loss_gap < 1e-12 and dt < budget
    _line(
        8, ok, dt, budget,
        f"impute oracle {impute_ok}/100, ticks exact {ticks_ok}, csv loss gap {loss_gap:.1e}",
    )
    assert impute_ok == 100
    assert ticks_ok
    assert loss_gap < 1e-12
    assert dt < budget


def test_criterion_9_cli_determinism(tmp_path):
    budget = 120.0
    t0 = time.time()
    # a verify run and a compose run, each replayed from its manifest
    v1 = tmp_path / "v1.json"
    args = ["verify", "theorem1", "--n", "400", "--k", "3", "--trials", "300", "--seed", "21"]
    assert main(args + ["--report", str(v1)]) == 0
    v2 = tmp_path / "v2.json"
    assert replay_manifest(str(v1) + ".manifest.json", v2) == 0
    verify_same = v1.read_bytes() == v2.read_bytes()

    bundle = tmp_path / "bundle"
    assert main(["synth", "--seed", "9", "--n", "120", "--k", "3", "--d", "5", "--out", str(bundle)]) == 0
    c1 = tmp_path / "c1.json"
    compose_args = [
        "compose", "dbcn", "--pool", str(bundle / "components.json"),
        "--data", str(bundle / "data.csv"), "--seed", "3",
        "--epochs", "30", "--patience", "10",
    ]
    assert main(compose_args + ["--report", str(c1)]) == 0
    c2 = tmp_path / "c2.json"
    assert replay_manifest(str(c1) + ".manifest.json", c2) == 0
    compose_same = c1.read_bytes() == c2.read_bytes()

    dt = time.time() - t0
    ok = verify_same and compose_same and dt < budget
    _line(9, ok, dt, budget, f"verify replay identical {verify_same}, compose replay identical {compose_same}")
    assert verify_same
    assert compose_same
    assert dt < budget
