"""Workload registry semantics: tags, resolution, inventory."""

import pytest

from repro.errors import ModelError
from repro.workloads import (
    HPLWorkload,
    MonteCarloWorkload,
    SortingWorkload,
    SummaWorkload,
    Workload,
    create_workload,
    iter_workloads,
    register_workload,
    registered_workloads,
)


class TestRegistry:
    def test_builtin_families_are_registered(self):
        assert registered_workloads() == ("hpl", "montecarlo", "sorting", "summa")

    def test_create_resolves_to_singletons(self):
        assert isinstance(create_workload("hpl"), HPLWorkload)
        assert isinstance(create_workload("sorting"), SortingWorkload)
        assert isinstance(create_workload("montecarlo"), MonteCarloWorkload)
        assert isinstance(create_workload("summa"), SummaWorkload)
        assert create_workload("sorting") is create_workload("sorting")

    def test_unknown_tag_is_model_error_naming_known_tags(self):
        with pytest.raises(ModelError, match="unknown workload 'cholesky'") as err:
            create_workload("cholesky")
        assert "hpl" in str(err.value)
        assert "sorting" in str(err.value)

    def test_reregistering_same_class_is_idempotent(self):
        register_workload("sorting")(SortingWorkload)
        assert isinstance(create_workload("sorting"), SortingWorkload)

    def test_reregistering_different_class_is_rejected(self):
        class Impostor(Workload):
            pass

        with pytest.raises(ModelError, match="already registered"):
            register_workload("sorting")(Impostor)

    def test_iter_workloads_sorted_pairs(self):
        pairs = iter_workloads()
        assert [tag for tag, _ in pairs] == ["hpl", "montecarlo", "sorting", "summa"]
        for tag, workload in pairs:
            assert workload.tag == tag


class TestDescribe:
    @pytest.mark.parametrize("tag", ["hpl", "sorting", "montecarlo", "summa"])
    def test_describe_is_serializable_inventory(self, tag):
        info = create_workload(tag).describe()
        assert info["tag"] == tag
        assert info["display"]
        assert info["phases"]
        # Compute + communication partition the phase list.
        assert sorted(info["compute_phases"] + info["comm_phases"]) == sorted(
            info["phases"]
        )
        # The paper's grid shape: 62 evaluation configurations, 5 sizes.
        assert info["evaluation_configs"] == 62
        assert len(info["evaluation_sizes"]) == 5

    def test_phase_decompositions(self):
        assert create_workload("sorting").phase_names == (
            "partition", "scatter", "local_sort", "merge",
        )
        assert create_workload("montecarlo").phase_names == (
            "sweep", "barrier", "rebalance",
        )
        assert create_workload("hpl").phase_names == (
            "pfact", "mxswp", "bcast", "update", "laswp", "uptrsv",
        )

    @pytest.mark.parametrize("tag", ["sorting", "montecarlo"])
    @pytest.mark.parametrize("protocol", ["basic", "nl", "ns"])
    def test_plans_exist_per_protocol(self, tag, protocol):
        plan = create_workload(tag).plan(protocol)
        assert plan.name == protocol
        assert len(plan.evaluation_configs) == 62

    def test_unknown_protocol_is_an_error(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="unknown protocol"):
            create_workload("sorting").plan("turbo")
