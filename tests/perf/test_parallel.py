"""Unit tests for the CPU count the serving fleet sizes itself with:
the affinity mask, cgroup quotas and the default worker count."""

import repro.perf.parallel as parallel
from repro.perf.parallel import _cgroup_cpu_limit, available_cpu_count, default_worker_count


class TestCgroupLimit:
    """Container CPU quotas (cgroup v2 ``cpu.max``) bound the CPU count
    even when the affinity mask still shows the whole machine."""

    def test_available_cpu_count_positive(self):
        assert available_cpu_count() >= 1

    def test_quota_rounds_up_to_whole_cpus(self, tmp_path):
        path = tmp_path / "cpu.max"
        path.write_text("150000 100000\n")
        assert _cgroup_cpu_limit(str(path)) == 2
        path.write_text("200000 100000\n")
        assert _cgroup_cpu_limit(str(path)) == 2
        path.write_text("50000 100000\n")
        assert _cgroup_cpu_limit(str(path)) == 1

    def test_unbounded_and_malformed_mean_no_limit(self, tmp_path):
        path = tmp_path / "cpu.max"
        path.write_text("max 100000\n")
        assert _cgroup_cpu_limit(str(path)) is None
        path.write_text("not a quota\n")
        assert _cgroup_cpu_limit(str(path)) is None
        path.write_text("")
        assert _cgroup_cpu_limit(str(path)) is None
        assert _cgroup_cpu_limit(str(tmp_path / "missing")) is None

    def test_quota_caps_available_cpu_count(self, monkeypatch):
        monkeypatch.setattr(parallel, "_cgroup_cpu_limit", lambda path=None: 1)
        assert available_cpu_count() == 1

    def test_no_quota_leaves_affinity_count(self, monkeypatch):
        monkeypatch.setattr(parallel, "_cgroup_cpu_limit", lambda path=None: None)
        assert available_cpu_count() >= 1


class TestDefaultWorkerCount:
    def test_tracks_available_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpu_count", lambda: 6)
        assert default_worker_count() == 6

    def test_cap_applies(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpu_count", lambda: 32)
        assert default_worker_count(cap=16) == 16

    def test_never_below_one(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpu_count", lambda: 1)
        assert default_worker_count(cap=16) == 1
