"""Every library entry that takes a bounded parameter refuses a value
outside the bound with a ConfigError, which is also a ValueError, whose
``field`` and message name the parameter."""

import math
from dataclasses import replace

import numpy as np
import pytest

from esfl import (
    ConfigError,
    OptimizerConfig,
    ScenarioSpec,
    SimOptions,
    ToyUser,
    convergence_study,
    esfl_train,
    init_dense_net,
    load_builtin,
    make_blobs,
    plan_rows,
    preset_scenarios,
    run_simulation,
    sample_rounds,
)
from esfl.errors import FINITE, INTEGER, NUMBER, check
from esfl.simulation import MAX_POPULATION

VGG19 = load_builtin("vgg19")
BP = preset_scenarios()["BP"]
NET = init_dense_net([2, 3, 2], loss="mse", rng=np.random.default_rng(3))
X, Y = make_blobs(8, rng=np.random.default_rng(4))
USERS = [ToyUser(x=X, y=Y, cut=1)]


def _spec(**kw):
    return ScenarioSpec("x", (10.0,), (1.3,), (500.0,), **kw)


def _plan(c_total):
    batch = sample_rounds(replace(BP, rounds=1), np.random.default_rng(0),
                          np.full(BP.population, 500.0), 1)
    return plan_rows(batch, VGG19, c_total)


@pytest.mark.parametrize("field, call", [
    ("max_iters", lambda: OptimizerConfig(max_iters=0)),
    ("max_iters", lambda: OptimizerConfig(max_iters=2.5)),
    ("t_agg", lambda: OptimizerConfig(t_agg=-1.0)),
    ("t_agg", lambda: OptimizerConfig(t_agg=math.nan)),
    ("c_total", lambda: _plan(0.0)),
    ("c_total", lambda: _plan(math.inf)),
    ("name", lambda: ScenarioSpec(5, (10.0,), (1.3,), (500.0,))),
    ("comm_options", lambda: ScenarioSpec("x", (), (1.3,), (500.0,))),
    ("comp_options", lambda: ScenarioSpec("x", (10.0,), (0.0,), (500.0,))),
    ("data_options", lambda: ScenarioSpec("x", (10.0,), (1.3,), (math.inf,))),
    ("population", lambda: _spec(population=0)),
    ("selected_per_round", lambda: _spec(selected_per_round=0)),
    ("selected_per_round", lambda: _spec(population=5, selected_per_round=6)),
    ("rounds", lambda: _spec(rounds=0)),
    ("epochs", lambda: _spec(epochs=0)),
    ("server_tflops", lambda: _spec(server_tflops=0.0)),
    ("server_tflops", lambda: _spec(server_tflops=1e297)),
    ("seed", lambda: _spec(seed=-1)),
    ("kb_bytes", lambda: SimOptions(kb_bytes=0.0)),
    ("fixed_cut", lambda: run_simulation(BP, ("sfl",), VGG19, SimOptions(fixed_cut=0))),
    ("algorithms", lambda: run_simulation(BP, (), VGG19)),
    ("algorithms", lambda: run_simulation(BP, ("esfl", "gossip"), VGG19)),
    ("algorithms", lambda: run_simulation(BP, ("fl", "fl"), VGG19)),
    ("repetitions", lambda: convergence_study(VGG19, repetitions=0)),
    ("scales", lambda: convergence_study(VGG19, scales=(5, 0))),
    pytest.param("scales", lambda: convergence_study(VGG19, scales=(10, 20, 10)),
                 id="scales-repeated"),
    ("seed", lambda: convergence_study(VGG19, seed=-1)),
    ("rounds", lambda: esfl_train(NET, USERS, rounds=0)),
    ("eta", lambda: esfl_train(NET, USERS, rounds=1, eta=1.5)),
    ("rho0", lambda: esfl_train(NET, USERS, rounds=1, rho0=0.0)),
    ("rho0", lambda: esfl_train(NET, USERS, rounds=1, rho0=math.inf)),
    ("batch_size", lambda: esfl_train(NET, USERS, rounds=1, batch_size=0)),
    ("cut", lambda: esfl_train(NET, [ToyUser(x=X, y=Y, cut=2)], rounds=1)),
    ("epochs", lambda: esfl_train(NET, [ToyUser(x=X, y=Y, cut=1, epochs=0)], rounds=1)),
    ("bwd_multiplier", lambda: load_builtin("vgg19", bwd_multiplier=-1.0)),
    ("bytes_per_element", lambda: load_builtin("vgg19", bytes_per_element=math.nan)),
])
def test_entry_names_the_field(field, call):
    with pytest.raises(ConfigError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert info.value.field == field
    assert str(info.value) == f"{field} {info.value.problem}"
    assert info.value.problem.startswith("must ")


@pytest.mark.parametrize("field, call", [
    ("scales", lambda: convergence_study(VGG19, scales=(5, MAX_POPULATION + 1))),
    ("repetitions", lambda: convergence_study(VGG19, scales=(5, 10), repetitions=10**6 + 1)),
])
def test_study_caps_name_the_study_field(field, call):
    # checked under the study's names, not the sized scenario's
    test_entry_names_the_field(field, call)


def test_check_shows_the_first_refused_item():
    rule = (lambda v: v < 0, "hold numbers >= 0")
    check("options", (1.0, 2.0), rule, each=True)
    with pytest.raises(ConfigError, match=r"^options must hold numbers >= 0, not -2\.0$"):
        check("options", (1.0, -2.0, -3.0), rule, each=True)
    # a bool is no number, and an integer beyond the float range is not finite
    for rule, value in ((NUMBER, True), (INTEGER, False), (FINITE, 10**400), (FINITE, "1")):
        with pytest.raises(ConfigError):
            check("x", value, rule)
    check("x", 10**300, FINITE)
