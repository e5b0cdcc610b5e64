"""Determinism under parallelism: ``workers=k`` must reproduce the serial
campaign bit for bit.

Every simulated run derives its noise stream from ``(seed, config, N,
trial)``, so fan-out order cannot leak into the data; these tests pin
that property for construction campaigns, evaluation grids and
trial-aggregated campaigns — with noise and outlier injection enabled,
which is where hidden RNG sharing would show up first.  The 1-CPU-safe
clamp is bypassed by patching the advertised CPU count: oversubscribed
pools are a performance problem, never a correctness one.  Each side of
a comparison measures on its own fresh spec, so neither is served from
the other's run memo.
"""

import pytest

import repro.perf.parallel as parallel
from repro.cluster.presets import kishimoto_cluster
from repro.hpl.driver import NoiseSpec
from repro.measure.campaign import run_campaign, run_evaluation
from repro.measure.grids import custom_plan
from repro.measure.trials import run_campaign_with_trials

#: Noise with outliers: the strongest stress on per-run seed independence.
NOISE = NoiseSpec(sigma_compute=0.02, sigma_comm=0.04, outlier_probability=0.25)


@pytest.fixture(scope="module")
def spec():
    return kishimoto_cluster()


@pytest.fixture(scope="module")
def tiny_plan(spec):
    """A small-but-real plan (10 configs x 4 sizes) so pooled runs stay fast."""
    return custom_plan(
        spec,
        construction_sizes=(400, 600, 800, 1200),
        evaluation_sizes=(1600,),
        max_procs=2,
        name="tiny",
    )


@pytest.fixture(autouse=True)
def many_cpus(monkeypatch):
    """Let the guard admit real pools on single-CPU CI boxes."""
    monkeypatch.setattr(parallel, "available_cpu_count", lambda: 8)


@pytest.fixture(scope="module")
def serial_campaign(tiny_plan):
    return run_campaign(kishimoto_cluster(), tiny_plan, noise=NOISE, seed=42, workers=1)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_campaign_parallel_equals_serial(tiny_plan, serial_campaign, workers):
    result = run_campaign(kishimoto_cluster(), tiny_plan, noise=NOISE, seed=42, workers=workers)
    assert result.plan_name == serial_campaign.plan_name
    assert result.dataset.to_json() == serial_campaign.dataset.to_json()
    assert result.cost_by_kind_and_n == serial_campaign.cost_by_kind_and_n


@pytest.mark.parametrize("workers", [2, 4])
def test_evaluation_parallel_equals_serial(tiny_plan, workers):
    serial = run_evaluation(kishimoto_cluster(), tiny_plan, noise=NOISE, seed=42, workers=1)
    parallel_ds = run_evaluation(
        kishimoto_cluster(), tiny_plan, noise=NOISE, seed=42, workers=workers
    )
    assert parallel_ds.to_json() == serial.to_json()


def test_trials_campaign_parallel_equals_serial(tiny_plan):
    serial = run_campaign_with_trials(
        kishimoto_cluster(), tiny_plan, trials=3, noise=NOISE, seed=42, workers=1
    )
    pooled = run_campaign_with_trials(
        kishimoto_cluster(), tiny_plan, trials=3, noise=NOISE, seed=42, workers=4
    )
    assert pooled.dataset.to_json() == serial.dataset.to_json()
    assert pooled.cost_by_kind_and_n == serial.cost_by_kind_and_n


def test_noiseless_campaign_parallel_equals_serial(tiny_plan):
    serial = run_campaign(kishimoto_cluster(), tiny_plan, noise=None, seed=0, workers=1)
    pooled = run_campaign(kishimoto_cluster(), tiny_plan, noise=None, seed=0, workers=2)
    assert pooled.dataset.to_json() == serial.dataset.to_json()


def test_cost_rollup_matches_ledger(serial_campaign):
    """The precomputed per-kind rollup must agree with a fresh scan."""
    for kind in ("athlon", "pentium2"):
        expected = sum(
            cost
            for (k, _), cost in serial_campaign.cost_by_kind_and_n.items()
            if k == kind
        )
        assert serial_campaign.cost_for_kind(kind) == expected
    assert serial_campaign.cost_for_kind("no-such-kind") == 0.0
