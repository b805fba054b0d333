import numpy as np
import pytest

from esfl import (
    ConfigError,
    OptimizerConfig,
    ScenarioSpec,
    SimOptions,
    convergence_study,
    load_builtin,
    preset_scenarios,
    price_rounds,
    run_simulation,
    sample_rounds,
)
from esfl.simulation import (
    CutLayerDistribution,
    _cut_distribution,
    sample_population_data,
    sample_population_resources,
)


@pytest.fixture(scope="module")
def vgg19():
    return load_builtin("vgg19")


def _small(spec, **kw):
    from dataclasses import replace
    return replace(spec, **kw)


class TestPresets:
    def test_all_eight_present(self):
        assert set(preset_scenarios()) == {"BP", "PR", "RP", "BR", "SH", "SL", "LS", "LH"}

    def test_bp_options(self):
        bp = preset_scenarios()["BP"]
        assert bp.comm_options == (10.0, 15.0, 20.0, 25.0)
        assert bp.comp_options == (1.3, 1.95, 2.6, 3.25)
        assert bp.data_options == (500.0,)

    def test_lh_options(self):
        lh = preset_scenarios()["LH"]
        assert lh.comm_options == (5.0, 10.0, 20.0, 35.0)
        assert lh.comp_options == (0.65, 1.3, 2.6, 4.55)

    def test_heterogeneity_presets_use_varied_data(self):
        presets = preset_scenarios()
        for name in ("SH", "SL", "LS", "LH"):
            assert presets[name].data_options == (200.0, 400.0, 600.0, 800.0)

    def test_shared_defaults(self):
        for spec in preset_scenarios().values():
            assert spec.population == 100
            assert spec.selected_per_round == 10
            assert spec.epochs == 5
            assert spec.server_tflops == 130.0

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ScenarioSpec("x", (), (1.0,), (1.0,))
        for bad in ({"comm_options": (float("nan"),)}, {"comp_options": (0.0,)},
                    {"data_options": (float("inf"),)}, {"server_tflops": float("inf")},
                    {"comm_options": (-1.0,)}):
            kw = {"comm_options": (1.0,), "comp_options": (1.0,),
                  "data_options": (1.0,), **bad}
            with pytest.raises(ConfigError):
                ScenarioSpec("x", **kw)
        with pytest.raises(ConfigError):
            SimOptions(kb_bytes=float("nan"))
        with pytest.raises(ConfigError):
            ScenarioSpec("x", (1.0,), (1.0,), (1.0,), population=5,
                         selected_per_round=6)


class TestSampling:
    def test_seeded_selection_reproduces(self, vgg19):
        spec = preset_scenarios()["BP"]
        for _ in range(2):
            rng = np.random.default_rng(spec.seed)
            data = sample_population_data(spec, rng)
            ids = tuple(sample_rounds(spec, rng, data, 1).user_ids[0].tolist())
            if _ == 0:
                first = ids
        assert ids == first

    def test_full_population_selection(self):
        spec = _small(preset_scenarios()["BP"], selected_per_round=100)
        rng = np.random.default_rng(0)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        assert sorted(batch.user_ids[0].tolist()) == list(range(100))

    def test_single_option_lists_make_identical_users(self):
        spec = ScenarioSpec("uniform", (10.0,), (1.3,), (500.0,))
        rng = np.random.default_rng(1)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        users = zip(batch.n_samples[0], batch.compute_flops[0], batch.up[0])
        assert len(set(users)) == 1


class TestRunRound:
    def test_esfl_never_slower_than_sfl(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=5)
        report = run_simulation(spec, ("esfl", "sfl"), vgg19)
        for rec in report.records:
            assert rec.times["esfl"] <= rec.times["sfl"]

    def test_esfl_never_slower_than_fl(self, vgg19):
        # full-local is one of the cut choices ESFL may take per user
        spec = _small(preset_scenarios()["RP"], rounds=5)
        report = run_simulation(spec, ("esfl", "fl"), vgg19)
        for rec in report.records:
            assert rec.times["esfl"] <= rec.times["fl"]

    def test_requested_algorithms_only(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=1)
        rng = np.random.default_rng(0)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        rec, = price_rounds(batch, ("fl",), vgg19, spec)
        assert set(rec.times) == {"fl"}
        assert rec.esfl_allocation is None

    def test_unknown_algorithm_rejected(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=1)
        rng = np.random.default_rng(0)
        batch = sample_rounds(spec, rng, sample_population_data(spec, rng), 1)
        with pytest.raises(ConfigError):
            price_rounds(batch, ("esfl", "gossip"), vgg19, spec)

    def test_identical_users_zero_variance_across_rounds(self, vgg19):
        spec = ScenarioSpec("uniform", (10.0,), (1.3,), (500.0,), rounds=4)
        report = run_simulation(spec, ("esfl", "fl"), vgg19)
        for algo in ("esfl", "fl"):
            vals = {rec.times[algo] for rec in report.records}
            assert len(vals) == 1

    def test_communication_bounded_by_total(self, vgg19):
        spec = _small(preset_scenarios()["SH"], rounds=5)
        report = run_simulation(spec, ("esfl", "sfl", "fl", "sl"), vgg19)
        for rec in report.records:
            for algo, total in rec.times.items():
                assert rec.comm_times[algo] <= total


class TestRunSimulation:
    def test_single_round_totals(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=1)
        report = run_simulation(spec, ("esfl", "fl"), vgg19)
        for algo in ("esfl", "fl"):
            assert report.total_time[algo] == report.records[0].times[algo]
            assert report.mean_round_time[algo] == report.records[0].times[algo]

    def test_totals_sum_the_records(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=6)
        report = run_simulation(spec, ("sfl",), vgg19)
        assert report.total_time["sfl"] == pytest.approx(
            sum(rec.times["sfl"] for rec in report.records), rel=1e-12
        )

    def test_distribution_rows_normalized(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=10)
        report = run_simulation(spec, ("esfl",), vgg19)
        dist = report.cut_distribution
        assert dist is not None
        sums = dist.matrix.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert abs(dist.pooled.sum() - 1.0) <= 1e-12

    def test_reproducible_reports(self, vgg19):
        spec = _small(preset_scenarios()["SH"], rounds=5)
        r1 = run_simulation(spec, ("esfl", "sfl"), vgg19)
        r2 = run_simulation(spec, ("esfl", "sfl"), vgg19)
        assert r1.records == r2.records
        assert r1.to_dict() == r2.to_dict()

    def test_sticky_resources_mode(self, vgg19):
        spec = ScenarioSpec("sticky", (10.0, 25.0), (1.3, 3.25), (500.0,),
                            rounds=6, selected_per_round=10)
        report = run_simulation(spec, ("fl",), vgg19,
                                SimOptions(sticky_resources=True))
        # a user selected in two rounds keeps its resources, so repeated
        # (user set -> fl time) pairs agree
        seen = {}
        for rec in report.records:
            key = rec.user_ids
            if key in seen:
                assert rec.times["fl"] == seen[key]
            seen[key] = rec.times["fl"]

    def test_optimizer_aggregation_time_prices_every_algorithm(self, vgg19):
        # the synchronous rounds each end with one aggregation; the
        # sequential relay aggregates once after its last user
        spec = _small(preset_scenarios()["SH"], rounds=3)
        algos = ("esfl", "fl", "sfl", "sl")
        base = run_simulation(spec, algos, vgg19)
        agg = run_simulation(spec, algos, vgg19,
                             SimOptions(optimizer=OptimizerConfig(t_agg=3.0)))
        for r0, r1 in zip(base.records, agg.records):
            for algo in algos:
                assert r1.times[algo] == pytest.approx(r0.times[algo] + 3.0, rel=1e-9)

    def test_convergence_summary_present(self, vgg19):
        spec = _small(preset_scenarios()["BP"], rounds=3)
        report = run_simulation(spec, ("esfl",), vgg19)
        assert report.convergence["all_converged"] is True
        assert report.convergence["max_iterations"] >= 1


def _loop_cut_distribution(user_ids, cuts, n_layers) -> CutLayerDistribution:
    """Reference: one count row per user, filled round by round."""
    counts = {}
    for row_ids, row_cuts in zip(np.asarray(user_ids).tolist(), np.asarray(cuts).tolist()):
        for uid, cut in zip(row_ids, row_cuts):
            counts.setdefault(uid, np.zeros(n_layers))[cut - 1] += 1
    ids = tuple(sorted(counts))
    pooled = np.sum([counts[uid] for uid in ids], axis=0)
    return CutLayerDistribution(
        user_ids=ids,
        matrix=np.array([counts[uid] / counts[uid].sum() for uid in ids]),
        pooled=pooled / pooled.sum(),
    )


def _assert_same_distribution(got, want):
    assert got.user_ids == want.user_ids
    assert all(type(uid) is int for uid in got.user_ids)
    assert np.array_equal(got.matrix, want.matrix)
    assert np.array_equal(got.pooled, want.pooled)
    assert got.entropy_variance() == want.entropy_variance()


class TestCutDistribution:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_loop_on_random_records(self, seed):
        rng = np.random.default_rng(seed)
        rounds, selected, n_layers = int(rng.integers(1, 9)), int(rng.integers(1, 7)), 20
        population = selected + int(rng.integers(0, 3 * selected))
        user_ids = np.stack([np.sort(rng.choice(population, selected, replace=False))
                             for _ in range(rounds)])
        cuts = rng.integers(1, n_layers + 1, size=user_ids.shape)
        got = _cut_distribution(user_ids, cuts, n_layers)
        _assert_same_distribution(got, _loop_cut_distribution(user_ids, cuts, n_layers))
        seen = np.unique(user_ids, return_counts=True)[1]
        if seed == 0:  # the draw holds users seen in one round and in several
            assert (seen == 1).any() and (seen > 1).any()

    def test_matches_the_loop_on_a_simulation(self, vgg19):
        spec = _small(preset_scenarios()["LH"], population=30, rounds=20)
        report = run_simulation(spec, ("esfl",), vgg19)
        user_ids = [rec.user_ids for rec in report.records]
        cuts = [rec.esfl_allocation.cuts for rec in report.records]
        _assert_same_distribution(report.cut_distribution,
                                  _loop_cut_distribution(user_ids, cuts, vgg19.num_layers))


class TestRowsMatchRoundByRound:
    """Planning every round at once equals planning each round alone."""

    @staticmethod
    def _assert_close(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        assert np.all(np.abs(x - y) <= 1e-12 * np.maximum(np.abs(x), np.abs(y)))

    @pytest.mark.parametrize("name", sorted(preset_scenarios()))
    @pytest.mark.parametrize("options", [
        SimOptions(),
        SimOptions(optimizer=OptimizerConfig(epoch_objective=True, t_agg=2.5)),
        SimOptions(sticky_resources=True, fixed_cut=4),
    ], ids=["default", "epoch-objective-t-agg", "sticky-fixed-cut"])
    def test_records_match(self, vgg19, name, options):
        spec = _small(preset_scenarios()[name], rounds=8, seed=3)
        algos = ("esfl", "sfl", "fl", "sl")
        report = run_simulation(spec, algos, vgg19, options)
        rng = np.random.default_rng(spec.seed)
        data = sample_population_data(spec, rng)
        sticky = (sample_population_resources(spec, rng)
                  if options.sticky_resources else None)
        for r, rec in enumerate(report.records):
            one = sample_rounds(spec, rng, data, 1, sticky, options.kb_bytes)
            alone, = price_rounds(one, algos, vgg19, spec, options, first_index=r)
            assert rec.index == alone.index and rec.user_ids == alone.user_ids
            assert rec.esfl_allocation.cuts == alone.esfl_allocation.cuts
            assert rec.esfl_iterations == alone.esfl_iterations
            assert rec.esfl_converged == alone.esfl_converged
            self._assert_close(rec.esfl_allocation.server_compute,
                               alone.esfl_allocation.server_compute)
            for algo in algos:
                self._assert_close(rec.times[algo], alone.times[algo])
                self._assert_close(rec.comm_times[algo], alone.comm_times[algo])


class TestConvergenceStudy:
    def test_row_per_scenario_scale_pair(self, vgg19):
        cells = convergence_study(vgg19, scales=(5, 10), repetitions=2)
        assert len(cells) == 4 * 2
        names = {(c.scenario, c.scale) for c in cells}
        assert ("BP", 5) in names and ("BR", 10) in names

    def test_single_user_scale_converges_immediately(self, vgg19):
        presets = preset_scenarios()
        cells = convergence_study(vgg19, scenarios=[presets["BP"]],
                                  scales=(1,), repetitions=2)
        assert all(c.max_iterations <= 2 for c in cells)
