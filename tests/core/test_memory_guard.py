"""Tests for memory-aware model construction (Section 3.4 operationalized)."""

from dataclasses import replace

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.memory_guard import MemoryGuard, require_clean, split_dataset
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.errors import MeasurementError, ModelError
from repro.hpl.memory import config_memory_ratio
from repro.measure.grids import nl_plan
from repro.units import MB
from repro.workloads import create_workload

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


class TestConfigMemoryRatio:
    def test_single_athlon_large_n_exceeds_memory(self, spec):
        ratio = config_memory_ratio(spec, cfg(1, 1, 0, 0), 10000, "athlon")
        assert ratio > 1.0

    def test_spread_problem_fits(self, spec):
        ratio = config_memory_ratio(spec, cfg(1, 1, 8, 1), 10000, "pentium2")
        assert ratio < 0.5

    def test_unused_kind_is_zero(self, spec):
        assert config_memory_ratio(spec, cfg(1, 1, 0, 0), 8000, "pentium2") == 0.0

    def test_footprint_scales_pressure(self, spec):
        base = config_memory_ratio(spec, cfg(1, 1, 0, 0), 6400, "athlon")
        summa = config_memory_ratio(
            spec, cfg(1, 1, 0, 0), 6400, "athlon", footprint=3.0
        )
        assert summa == pytest.approx(3 * base, rel=0.10)

    def test_dual_cpu_nodes_share_memory(self, spec):
        # two processes on one dual node double the node's pressure
        # relative to one process on it at the same P
        one = config_memory_ratio(spec, cfg(0, 0, 1, 2), 4800, "pentium2")
        two = config_memory_ratio(spec, cfg(0, 0, 2, 1), 4800, "pentium2")
        assert one == pytest.approx(two, rel=1e-9)  # both: 2 procs on node2


class TestGuard:
    def test_validation(self, spec):
        hpl = create_workload("hpl")
        with pytest.raises(ModelError):
            MemoryGuard(spec, hpl, threshold=0.0)
        with pytest.raises(ModelError):
            MemoryGuard(spec, hpl, threshold=-1.0)

    def test_fits_and_ratio(self, spec):
        guard = MemoryGuard(spec, create_workload("summa"))
        assert guard.fits(cfg(1, 1, 8, 1), 3200)
        assert not guard.fits(cfg(0, 0, 1, 1), 6400)  # SUMMA pages there

    def test_split_dataset_summa_nl_grid(self, spec):
        """The NL grid's single-P-II runs at N = 6400 page under SUMMA."""
        pipeline = EstimationPipeline(
            spec,
            PipelineConfig(protocol="nl", seed=11, workload="summa"),
        )
        guard = MemoryGuard(spec, pipeline.workload)
        clean, paging = split_dataset(pipeline.campaign.dataset, guard)
        assert len(paging) > 0
        assert len(clean) + len(paging) == len(pipeline.campaign.dataset)
        assert all(not guard.record_fits(r) for r in paging)
        # the notorious offender is among them
        assert any(r.label == "0,0,1,1" and r.n == 6400 for r in paging)

    def test_require_clean_raises_on_paging(self, spec):
        pipeline = EstimationPipeline(
            spec, PipelineConfig(protocol="nl", seed=11, workload="summa")
        )
        with pytest.raises(MeasurementError, match="exceed memory"):
            require_clean(
                pipeline.campaign.dataset, MemoryGuard(spec, pipeline.workload)
            )

    def test_require_clean_passes_hpl_grid(self, basic_campaign, spec):
        clean = require_clean(
            basic_campaign.dataset, MemoryGuard(spec, create_workload("hpl"))
        )
        assert len(clean) == len(basic_campaign.dataset)


class TestGuardedPipeline:
    def test_guard_repairs_summa_pt_models(self, spec):
        """End-to-end: the guard removes the paging-contaminated runs and
        the P-T fit becomes sane again (compare the contaminated fit in
        tests/integration/test_other_application.py: k8 < -10)."""
        # One extra small size so the families that lose their paging
        # N=6400 runs still have the 4 distinct N an N-T fit needs.
        plan = replace(
            nl_plan(),
            construction_sizes=(1200, 1600, 3200, 4800, 6400),
            evaluation_sizes=(3200,),
        )
        guarded = EstimationPipeline(
            spec,
            PipelineConfig(
                protocol="nl",
                seed=11,
                workload="summa",
                adjust=False,
                memory_guard=True,
            ),
            plan=plan,
        )
        assert len(guarded.excluded_paging_runs) > 0
        pt = guarded.store.pt_model("pentium2", 1)
        assert abs(pt.k8) < 10.0
        # and the estimate is usable again
        config = cfg(1, 1, 8, 1)
        est = guarded.estimate(config, 3200).total
        meas = guarded.measured_time(config, 3200)
        assert est == pytest.approx(meas, rel=0.35)

    def test_guard_is_noop_for_hpl(self, spec):
        guarded = EstimationPipeline(
            spec,
            PipelineConfig(protocol="ns", seed=11, memory_guard=True),
        )
        assert len(guarded.excluded_paging_runs) == 0

    @pytest.mark.parametrize("family", ["hpl", "sorting", "montecarlo"])
    def test_guard_uses_the_family_memory_model(self, spec, family):
        """The fit stage's guard drops exactly the runs the family's own
        memory model flags — not the runs HPL's model would flag."""
        small = replace(
            spec,
            nodes=tuple(replace(node, memory_bytes=384 * MB) for node in spec.nodes),
        )
        pipeline = EstimationPipeline(
            small,
            PipelineConfig(
                protocol="nl", seed=3, workload=family,
                memory_guard=True, adjust=False,
            ),
        )
        workload = pipeline.workload
        flagged = {
            (record.label, record.n)
            for record in pipeline.campaign.dataset
            if max(
                workload.memory_ratio(small, record.config(), record.n, a.kind_name)
                for a in record.config().active
            ) > 1.0
        }
        excluded = {(record.label, record.n) for record in pipeline.excluded_paging_runs}
        assert excluded == flagged
