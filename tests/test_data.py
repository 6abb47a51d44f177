"""Data plumbing: imputation, interpolation, synthetic tasks, CSV."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import compnet as cn


def _brute_force_impute(grid, k):
    """Independent oracle: all-pairs distances, explicit stable sort."""
    out = grid.copy()
    known = [(r, c) for r in range(grid.shape[0]) for c in range(grid.shape[1])
             if np.isfinite(grid[r, c])]
    for r in range(grid.shape[0]):
        for c in range(grid.shape[1]):
            if np.isfinite(grid[r, c]):
                continue
            ranked = sorted(known, key=lambda rc: ((rc[0] - r) ** 2 + (rc[1] - c) ** 2, rc))
            out[r, c] = float(np.mean([grid[rc] for rc in ranked[:k]]))
    return out


def _knn_peak_bytes(grid):
    tracemalloc.start()
    try:
        cn.knn_impute(grid, k=4)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKnnImpute:
    def test_constant_grid(self):
        g = np.full((4, 4), np.nan)
        g[0, 0] = g[0, 3] = g[3, 0] = g[3, 3] = 5.0
        out = cn.knn_impute(g, k=4)
        np.testing.assert_array_equal(out, np.full((4, 4), 5.0))

    def test_four_equidistant_neighbors(self):
        g = np.full((3, 3), np.nan)
        g[0, 1], g[1, 0], g[1, 2], g[2, 1] = 1.0, 2.0, 3.0, 4.0
        assert cn.knn_impute(g, k=4)[1, 1] == 2.5

    @pytest.mark.parametrize("k", [1, 3, 4, 6], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize(
        "shape", [(5, 5), (3, 8), (8, 3), (1, 9)], ids=lambda s: f"{s[0]}x{s[1]}"
    )
    def test_matches_brute_force_oracle_on_random_grids(self, shape, k):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = rng.normal(size=shape)
            mask = rng.random(shape) < 0.4
            g[mask] = np.nan
            if np.isfinite(g).sum() < k:
                continue
            np.testing.assert_array_equal(cn.knn_impute(g, k=k), _brute_force_impute(g, k))

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        missing=st.floats(0.05, 0.9),
        k=st.integers(1, 12),
        integers=st.booleans(),
    )
    @example(seed=1, rows=1, cols=12, missing=0.3, k=3, integers=True)
    @example(seed=2, rows=12, cols=1, missing=0.3, k=9, integers=False)
    # about 800 known cells: the window search fills most cells in its
    # first round, and its chunks hold hundreds of cells
    @example(seed=3, rows=40, cols=40, missing=0.5, k=8, integers=True)
    # about 170 known cells and k = 1: two window rounds, then the scan
    # for the few cells that the second window left
    @example(seed=4, rows=40, cols=40, missing=0.9, k=1, integers=False)
    # k known cells in one corner: every cell ends in the full scan
    @example(seed=5, rows=30, cols=30, missing=-1.0, k=5, integers=True)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_property(self, seed, rows, cols, missing, k, integers):
        """Integer cells tie on value, and every grid ties on distance;
        k >= 8 covers numpy's pairwise summation.  A negative ``missing``
        keeps only k known cells, packed into the top-left corner."""
        rng = np.random.default_rng(seed)
        if integers:
            g = rng.integers(-3, 4, size=(rows, cols)).astype(float)
        else:
            g = rng.normal(size=(rows, cols))
        if missing < 0:
            corner = np.zeros(g.size, dtype=bool)
            corner[:k] = True
            g[~corner.reshape(g.shape)] = np.nan
        else:
            g[rng.random(g.shape) < missing] = np.nan
        assume(np.isfinite(g).sum() >= k)
        np.testing.assert_array_equal(cn.knn_impute(g, k=k), _brute_force_impute(g, k))

    def test_matches_brute_force_on_the_benchmark_shape(self):
        """An 80x80 grid with 30% of its cells missing, and k = 4."""
        rng = np.random.default_rng(11)
        g = rng.normal(size=(80, 80))
        g[rng.random(g.shape) < 0.3] = np.nan
        np.testing.assert_array_equal(cn.knn_impute(g, k=4), _brute_force_impute(g, 4))

    def test_peak_memory_is_bounded(self):
        """Chunking keeps the temporaries of a 120x120 grid near 1 MB."""
        rng = np.random.default_rng(0)
        g = rng.normal(size=(120, 120))
        g[rng.random(g.shape) < 0.3] = np.nan
        assert _knn_peak_bytes(g) < 2 * 2**20

    @pytest.mark.parametrize("n_known", [4, 10])
    def test_peak_memory_is_bounded_on_sparse_grids(self, n_known):
        """A window as wide as such a grid would outgrow the chunk bound,
        so these cells go to the scan before any window is built."""
        rng = np.random.default_rng(0)
        g = np.full(120 * 120, np.nan)
        g[rng.choice(g.size, n_known, replace=False)] = rng.normal(size=n_known)
        assert _knn_peak_bytes(g.reshape(120, 120)) < 2 * 2**20

    def test_overflowing_mean_names_its_cell(self):
        g = np.array([[1e308, 1e308], [1e308, np.nan]])
        with pytest.raises(cn.DataError, match=r"overflows at \(1, 1\)"):
            cn.knn_impute(g, k=3)

    def test_too_few_known_cells(self):
        g = np.full((3, 3), np.nan)
        g[0, 0] = 1.0
        with pytest.raises(cn.DataError, match="known"):
            cn.knn_impute(g, k=4)

    def test_infinite_cell_rejected(self):
        """NaN marks a missing cell; an infinite one is not imputed."""
        g = np.ones((3, 3))
        g[0, 0], g[1, 1] = np.inf, np.nan
        with pytest.raises(cn.DataError, match="infinite"):
            cn.knn_impute(g, k=4)

    def test_idempotent_once_filled(self, rng):
        g = rng.normal(size=(6, 6))
        g[1, 2] = g[4, 4] = np.nan
        filled = cn.knn_impute(g, k=4)
        np.testing.assert_array_equal(cn.knn_impute(filled, k=4), filled)

    def test_spec_shape_validation(self):
        spec = cn.GridSpec(rows=3, cols=4)
        with pytest.raises(cn.DataError, match="shape"):
            cn.knn_impute(np.zeros((2, 2)), spec)

    def test_station_rasterization_averages_colocated(self):
        spec = cn.GridSpec(
            rows=2, cols=2, stations=[(0, 0, "a"), (0, 0, "b"), (1, 1, "c")]
        )
        grid = cn.rasterize_stations(spec, {"a": 1.0, "b": 3.0, "c": 7.0})
        assert grid[0, 0] == 2.0 and grid[1, 1] == 7.0
        assert np.isnan(grid[0, 1]) and np.isnan(grid[1, 0])


class TestInterpolateTime:
    def test_six_hour_to_hourly(self):
        np.testing.assert_array_equal(
            cn.interpolate_time(np.array([0.0, 6.0])), np.arange(7.0)
        )

    def test_constant_series(self):
        out = cn.interpolate_time(np.full(3, 2.5))
        np.testing.assert_array_equal(out, np.full(13, 2.5))

    def test_ticks_preserved_exactly_and_midpoints_average(self, rng):
        v = rng.normal(size=6)
        out = cn.interpolate_time(v, step=2)
        for i in range(6):
            assert out[2 * i] == v[i]
        for i in range(5):
            assert out[2 * i + 1] == (v[i] + v[i + 1]) / 2.0

    def test_single_tick_warns(self):
        with pytest.warns(UserWarning, match="single"):
            out = cn.interpolate_time(np.array([4.0]))
        np.testing.assert_array_equal(out, [4.0])

    def test_two_dimensional_series(self, rng):
        v = rng.normal(size=(4, 3))
        out = cn.interpolate_time(v, step=6)
        assert out.shape == (19, 3)
        np.testing.assert_array_equal(out[::6], v)

    @given(seed=st.integers(0, 5000), step=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_tick_preservation_property(self, seed, step):
        v = np.random.default_rng(seed).normal(size=5)
        out = cn.interpolate_time(v, step=step)
        assert out.size == 4 * step + 1
        np.testing.assert_array_equal(out[::step], v)


class TestGenerateSynthetic:
    def test_graded_quality_losses_strictly_increase(self):
        spec = cn.SyntheticTaskSpec(
            n=120, d=4, m=1, noise_sd=0.0, component_quality=(0.1, 0.2, 0.3), seed=3
        )
        data, comps = cn.generate_synthetic(spec)
        losses = [cn.component_loss(c, data, "train") for c in comps]
        assert losses[0] < losses[1] < losses[2]
        # unit-RMS perturbations make the training loss exactly quality^2
        np.testing.assert_allclose(losses, [0.01, 0.04, 0.09], rtol=1e-9)

    def test_outputs_always_pass_assumption_checks(self):
        for seed in range(5):
            spec = cn.SyntheticTaskSpec(
                n=80, d=4, m=1, component_quality=(0.1, 0.25), seed=seed
            )
            data, comps = cn.generate_synthetic(spec)
            cols = np.column_stack(
                [c.forward(data.inputs[data.train_idx]).ravel() for c in comps]
            )
            rep = cn.check_assumptions(cols, data.labels[data.train_idx].ravel())
            assert rep.a1.holds and rep.a2.holds

    def test_perfect_component_exhausts_retries(self):
        spec = cn.SyntheticTaskSpec(
            n=50, d=3, m=1, true_function="linear", noise_sd=0.0,
            component_quality=(0.0,), seed=1,
        )
        with pytest.raises(cn.DataError, match="A1/A2|retries"):
            cn.generate_synthetic(spec)

    def test_seed_determinism(self):
        spec = cn.SyntheticTaskSpec(n=60, d=3, m=2, component_quality=(0.2, 0.4), seed=9)
        d1, c1 = cn.generate_synthetic(spec)
        d2, c2 = cn.generate_synthetic(spec)
        np.testing.assert_array_equal(d1.inputs, d2.inputs)
        np.testing.assert_array_equal(d1.labels, d2.labels)
        for a, b in zip(c1, c2):
            assert a.to_dict() == b.to_dict()

    def test_sum_of_experts_and_linear_teachers(self):
        for teacher in ("linear", "sum-of-experts"):
            spec = cn.SyntheticTaskSpec(
                n=64, d=4, m=1, true_function=teacher, component_quality=(0.2, 0.3), seed=2
            )
            data, comps = cn.generate_synthetic(spec)
            assert len(comps) == 2
            assert all(c.kind == cn.KIND_PRETRAINED for c in comps)

    @pytest.mark.parametrize("quality", [np.nan, np.inf])
    def test_non_finite_quality_rejected(self, quality):
        with pytest.raises(cn.DataError, match="component_quality entries must be finite"):
            cn.SyntheticTaskSpec(n=40, d=3, component_quality=(0.1, quality))

    def test_task_spec_config_roundtrip(self, tmp_path):
        spec = cn.SyntheticTaskSpec(
            n=77, d=5, m=2, true_function="linear", noise_sd=0.125,
            component_quality=(0.1, 0.35), seed=4,
        )
        path = tmp_path / "task.spec"
        cn.save_task_spec(spec, path)
        assert cn.load_task_spec(path) == spec

    @given(
        spec=st.builds(
            cn.SyntheticTaskSpec,
            n=st.integers(1, 10**9),
            d=st.integers(1, 10**9),
            m=st.integers(1, 10**9),
            true_function=st.sampled_from(["linear", "mlp-teacher", "sum-of-experts"]),
            noise_sd=st.floats(min_value=-0.0, allow_infinity=False),
            component_quality=st.lists(
                st.floats(min_value=-0.0, allow_infinity=False), min_size=1, max_size=5
            ).map(tuple),
            seed=st.integers(),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_every_valid_task_spec_round_trips_bit_exactly(self, tmp_path_factory, spec):
        path = tmp_path_factory.mktemp("spec") / "task.spec"
        cn.save_task_spec(spec, path)
        loaded = cn.load_task_spec(path)
        # repr tells -0.0 from 0.0 and shows every float's shortest round-trip digits
        assert loaded == spec and repr(loaded) == repr(spec)

    def test_omitted_keys_take_their_defaults(self, tmp_path):
        path = tmp_path / "task.spec"
        path.write_text("# only the fields without a default\nn=10\n\nd=2\n")
        assert cn.load_task_spec(path) == cn.SyntheticTaskSpec(n=10, d=2)
        path.write_text("d=2\n")
        with pytest.raises(cn.DataError, match="missing task spec field: 'n'"):
            cn.load_task_spec(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("n=10\nd=2\nnoise=0.1\n", "line 3: unknown task spec key 'noise'"),
            ("n=x\nd=2\n", "line 1: n: invalid literal for int() with base 10: 'x'"),
            ("n=10\nd=2\ncomponent_quality=\n", "line 3: component_quality: could not convert"),
            ("n=10\nd 2\n", "line 2: expected key=value"),
        ],
        ids=["unknown-key", "malformed-int", "empty-tuple", "no-equals"],
    )
    def test_task_spec_diagnostics_name_file_line_and_key(self, tmp_path, text, where):
        path = tmp_path / "task.spec"
        path.write_text(text)
        with pytest.raises(cn.DataError, match=re.escape(f"{path}: {where}")):
            cn.load_task_spec(path)


class TestCsv:
    def test_roundtrip_bit_identical(self, tmp_path, rng):
        data = cn.Dataset(
            rng.normal(size=(2, 3)), rng.normal(size=(2, 1)), np.array([0]), np.array([1])
        )
        p = tmp_path / "d.csv"
        cn.save_csv(p, data)
        again = cn.load_csv(p, ["x1", "x2", "x3"], ["y1"])
        np.testing.assert_array_equal(again.inputs, data.inputs)
        np.testing.assert_array_equal(again.labels, data.labels)
        np.testing.assert_array_equal(again.train_idx, data.train_idx)
        p2 = tmp_path / "d2.csv"
        cn.save_csv(p2, again)
        assert p.read_bytes() == p2.read_bytes()

    def test_nan_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,y1\n1.0,2.0\n3.0,NaN\n")
        with pytest.raises(cn.DataError, match=r"rows: \[3\]"):
            cn.load_csv(p, ["x1"], ["y1"])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cells_name_their_rows(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"x1,y1\n1.0,2.0\n{cell},3.0\n4.0,5.0\n6.0,{cell}\n")
        with pytest.raises(cn.DataError, match=r"non-finite values in rows: \[3, 5\]$"):
            cn.load_csv(p, ["x1"], ["y1"])

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(cn.DataError, match="missing columns"):
            cn.load_csv(p, ["x1"], ["y1"])

    def test_parse_failure_names_line(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("x1,y1\n1.0,2.0\nfoo,3.0\n")
        with pytest.raises(cn.DataError, match="line 3"):
            cn.load_csv(p, ["x1"], ["y1"])

    def test_large_roundtrip_loss_agreement(self, tmp_path):
        spec = cn.SyntheticTaskSpec(n=1000, d=4, m=1, component_quality=(0.2,), seed=6)
        data, comps = cn.generate_synthetic(spec)
        p = tmp_path / "big.csv"
        cn.save_csv(p, data)
        again = cn.load_csv(p, [f"x{i + 1}" for i in range(4)], ["y1"])
        net = cn.single_component_network(comps[0].id)
        reg = cn.registry(comps)
        a = cn.loss_l2(net, reg, data, "train")
        b = cn.loss_l2(net, reg, again, "train")
        assert a == pytest.approx(b, abs=1e-12)

    def test_grid_csv_roundtrip(self, tmp_path, rng):
        g = rng.normal(size=(4, 5))
        g[1, 2] = np.nan
        p = tmp_path / "g.csv"
        cn.save_grid_csv(p, g)
        back = cn.load_grid_csv(p)
        np.testing.assert_array_equal(np.isnan(back), np.isnan(g))
        np.testing.assert_array_equal(back[np.isfinite(back)], g[np.isfinite(g)])
