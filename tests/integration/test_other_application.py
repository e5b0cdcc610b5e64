"""The paper's generality claim, executed: the whole estimation pipeline
(measure -> fit -> compose -> adjust -> optimize) run on a *different*
application (the ``summa`` workload family, SUMMA matrix multiplication)
without changing any model code."""

from dataclasses import replace

import pytest

from repro.analysis.errors import evaluation_rows
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.measure.grids import nl_plan


@pytest.fixture(scope="module")
def summa_plan():
    """An NL-style plan whose construction sizes keep SUMMA's 3-matrix
    footprint below every node's RAM: a single Pentium-II at N = 6400
    needs ~1 GB for SUMMA and pages, which poisons the P-T reference
    shape (see TestMemoryContamination below — the paper's Section 3.4
    motivation for memory binning, demonstrated on a second app)."""
    plan = nl_plan()
    return replace(
        plan,
        construction_sizes=(1200, 1600, 3200, 4800),
        evaluation_sizes=(1600, 3200, 4800),
    )


@pytest.fixture(scope="module")
def summa_pipeline(spec, summa_plan):
    return EstimationPipeline(
        spec,
        PipelineConfig(protocol="nl", seed=11, workload="summa", calibration_n=4800),
        plan=summa_plan,
    )


class TestSummaPipeline:
    def test_models_fit(self, summa_pipeline):
        store = summa_pipeline.store
        assert store.has_nt("athlon", 1, 1)
        assert store.has_pt("pentium2", 1)
        assert store.pt_model("athlon", 1).is_composed

    def test_estimates_track_measurements(self, summa_pipeline):
        from repro.cluster.config import ClusterConfig

        config = ClusterConfig.from_tuple(summa_pipeline.plan.kinds, (1, 1, 8, 1))
        est = summa_pipeline.estimate(config, 3200).total
        meas = summa_pipeline.measured_time(config, 3200)
        assert est == pytest.approx(meas, rel=0.25)

    def test_optimization_quality(self, summa_pipeline):
        rows = evaluation_rows(summa_pipeline, sizes=[3200, 4800])
        for row in rows:
            assert row.regret <= 0.10, f"N={row.n}: regret {row.regret:+.3f}"

    def test_summa_prefers_more_parallelism_than_hpl(self, summa_pipeline, kinds):
        """SUMMA's compute/comm ratio is 3x HPL's, so the cluster pays off
        at smaller N: by N=3200 the optimum is no longer the Athlon alone."""
        config, _ = summa_pipeline.actual_best(3200)
        assert config.pe_count("pentium2") > 0


class TestMemoryContamination:
    """What happens *without* the careful grid: a construction size that
    pages on the smallest configuration corrupts the P-T reference shape
    (the single-PE run is 4-5x slower than its compute time), driving the
    fitted offset wildly negative.  This is the failure mode the paper's
    Section 3.4 memory binning exists to prevent."""

    def test_paging_inflates_reference_and_breaks_pt_fit(self, spec):
        contaminated_plan = replace(
            nl_plan(), evaluation_sizes=(3200,)
        )  # construction keeps N=6400, which pages for SUMMA on one P-II
        pipeline = EstimationPipeline(
            spec,
            PipelineConfig(
                protocol="nl", seed=11, workload="summa", adjust=False
            ),
            plan=contaminated_plan,
        )
        single = pipeline.store.nt_model("pentium2", 1, 1)
        # the single-P-II N=6400 run took far longer than its compute time
        compute_only = 2.0 * 6400**3 / 0.24e9
        assert single.predict_ta(6400) > 2.0 * compute_only
        # and the integrated P-T model inherits a pathological offset
        pt = pipeline.store.pt_model("pentium2", 1)
        assert pt.k8 < -10.0
