"""Unit tests for measurement records and datasets."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.presets import kishimoto_cluster
from repro.errors import MeasurementError
from repro.hpl.driver import run_hpl
from repro.hpl.timing import PhaseTimes
from repro.measure.dataset import Dataset
from repro.measure.record import KindMeasurement, MeasurementRecord

KINDS = ("athlon", "pentium2")


def record_for(p1, m1, p2, m2, n, trial=0):
    spec = kishimoto_cluster()
    config = ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))
    result = run_hpl(spec, config, n)
    return MeasurementRecord.from_result(result, KINDS, trial=trial)


@pytest.fixture(scope="module")
def het_record():
    return record_for(1, 2, 8, 1, 1600)


@pytest.fixture(scope="module")
def athlon_record():
    return record_for(1, 1, 0, 0, 800)


class TestRecord:
    def test_from_result_fields(self, het_record):
        assert het_record.label == "1,2,8,1"
        assert het_record.n == 1600
        assert het_record.total_processes == 10
        assert not het_record.is_single_kind

    def test_per_kind_breakdown(self, het_record):
        athlon = het_record.kind("athlon")
        p2 = het_record.kind("pentium2")
        assert athlon.procs_per_pe == 2
        assert p2.pe_count == 8
        assert athlon.ta < p2.ta  # the fast PE computes its share faster

    def test_single_kind_record_excludes_unused(self, athlon_record):
        assert athlon_record.is_single_kind
        assert athlon_record.has_kind("athlon")
        assert not athlon_record.has_kind("pentium2")
        with pytest.raises(MeasurementError):
            athlon_record.kind("pentium2")

    def test_config_roundtrip(self, het_record):
        assert het_record.config().label(KINDS) == "1,2,8,1"

    def test_tuple_accessors(self, het_record):
        assert het_record.pe_count("pentium2") == 8
        assert het_record.procs_per_pe("athlon") == 2

    def test_serialization_roundtrip(self, het_record):
        restored = MeasurementRecord.from_dict(het_record.to_dict())
        assert restored == het_record

    def test_validation(self):
        with pytest.raises(MeasurementError):
            MeasurementRecord(
                kinds=KINDS,
                config_tuple=(1, 1, 0),  # wrong length
                n=100,
                total_processes=1,
                wall_time_s=1.0,
                gflops=1.0,
                per_kind=(),
            )
        with pytest.raises(MeasurementError):
            MeasurementRecord(
                kinds=KINDS,
                config_tuple=(1, 1, 0, 0),
                n=100,
                total_processes=1,
                wall_time_s=0.0,
                gflops=1.0,
                per_kind=(),
            )

    def test_kind_measurement_roundtrip(self):
        km = KindMeasurement("athlon", 1, 2, PhaseTimes(update=3.0, bcast=1.0))
        assert KindMeasurement.from_dict(km.to_dict()) == km
        assert km.total == pytest.approx(4.0)


class TestDataset:
    def test_duplicate_keys_rejected(self, athlon_record):
        ds = Dataset([athlon_record])
        with pytest.raises(MeasurementError):
            ds.add(athlon_record)

    def test_same_config_different_trial_allowed(self):
        ds = Dataset([record_for(1, 1, 0, 0, 400, trial=0)])
        ds.add(record_for(1, 1, 0, 0, 400, trial=1))
        assert len(ds) == 2

    def test_filters(self, athlon_record, het_record):
        ds = Dataset([athlon_record, het_record])
        assert len(ds.for_n(800)) == 1
        assert len(ds.for_config((1, 2, 8, 1))) == 1
        assert len(ds.single_kind("athlon")) == 1
        assert len(ds.single_kind("pentium2")) == 0

    def test_sizes_and_counts(self, athlon_record, het_record):
        ds = Dataset([athlon_record, het_record])
        assert ds.sizes() == [800, 1600]
        assert ds.process_counts() == [1, 10]
        assert len(ds.config_tuples()) == 2

    def test_lookup(self, het_record):
        ds = Dataset([het_record])
        assert ds.lookup((1, 2, 8, 1), 1600) is het_record
        with pytest.raises(MeasurementError):
            ds.lookup((1, 2, 8, 1), 3200)

    def test_total_wall_time(self, athlon_record, het_record):
        ds = Dataset([athlon_record, het_record])
        assert ds.total_wall_time() == pytest.approx(
            athlon_record.wall_time_s + het_record.wall_time_s
        )

    def test_merge_disjoint(self, athlon_record, het_record):
        merged = Dataset([athlon_record]).merge(Dataset([het_record]))
        assert len(merged) == 2

    def test_merge_collision_rejected(self, athlon_record):
        with pytest.raises(MeasurementError):
            Dataset([athlon_record]).merge(Dataset([athlon_record]))

    def test_json_roundtrip(self, athlon_record, het_record, tmp_path):
        ds = Dataset([athlon_record, het_record])
        path = tmp_path / "ds.json"
        ds.save(path)
        loaded = Dataset.load(path)
        assert len(loaded) == 2
        assert loaded[0] == ds[0] and loaded[1] == ds[1]

    def test_json_format_version_checked(self):
        with pytest.raises(MeasurementError):
            Dataset.from_json('{"format": 99, "records": []}')

    def test_csv_has_row_per_kind(self, het_record):
        csv_text = Dataset([het_record]).to_csv()
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3  # header + athlon + pentium2
        assert "athlon" in csv_text and "pentium2" in csv_text

    def test_summary(self, athlon_record):
        assert "1 records" in Dataset([athlon_record]).summary()
        assert Dataset().summary() == "Dataset(empty)"


def scan_lookup(dataset, config_tuple, n, trial=0):
    """The key search the index replaced: first record with that key."""
    wanted = (tuple(config_tuple), n, trial)
    matches = [r for r in dataset if r.key() == wanted]
    return matches[0] if matches else None


def scan_config_tuples(dataset):
    out = []
    for r in dataset:
        if r.config_tuple not in out:
            out.append(r.config_tuple)
    return out


def assert_index_matches_scan(dataset, probes):
    """Every query the index answers equals a scan over the records."""
    assert dataset.config_tuples() == scan_config_tuples(dataset)
    for config_tuple in dataset.config_tuples() + [(9, 9, 9, 9)]:
        got = dataset.for_config(config_tuple)
        assert list(got) == [r for r in dataset if r.config_tuple == config_tuple]
    for config_tuple, n, trial in probes:
        expected = scan_lookup(dataset, config_tuple, n, trial)
        if expected is None:
            with pytest.raises(MeasurementError, match=r"no measurement for \(\(.*"):
                dataset.lookup(config_tuple, n, trial)
        else:
            assert dataset.lookup(config_tuple, n, trial) is expected


class TestDatasetIndex:
    """The key and per-configuration index answers what a scan would,
    after ``add``, ``merge`` and ``filter``, in record order."""

    @pytest.fixture(scope="class")
    def records(self):
        return [
            record_for(1, 1, 0, 0, 400, trial=0),
            record_for(0, 0, 2, 1, 400, trial=0),
            record_for(1, 1, 0, 0, 800, trial=0),
            record_for(1, 1, 0, 0, 400, trial=1),
            record_for(0, 0, 2, 1, 800, trial=2),
        ]

    @pytest.fixture(scope="class")
    def probes(self, records):
        keys = [r.key() for r in records]
        return keys + [((1, 1, 0, 0), 400, 2), ((0, 0, 2, 1), 1600, 0),
                       ((1, 1, 0, 0), 800.0, 0), ((3, 1, 0, 0), 400, 0)]

    def test_after_add(self, records, probes):
        ds = Dataset()
        for record in records:
            ds.add(record)
            assert_index_matches_scan(ds, probes)

    def test_rejected_duplicate_leaves_the_index_unchanged(self, records, probes):
        ds = Dataset(records)
        with pytest.raises(MeasurementError, match="duplicate measurement"):
            ds.add(records[2])
        assert len(ds) == len(records)
        assert_index_matches_scan(ds, probes)

    def test_after_merge(self, records, probes):
        merged = Dataset(records[:2]).merge(Dataset(records[2:]))
        assert list(merged) == records
        assert_index_matches_scan(merged, probes)

    def test_after_filter(self, records, probes):
        ds = Dataset(records)
        for predicate in (lambda r: r.n == 400, lambda r: r.trial > 0,
                          lambda r: r.config_tuple == (0, 0, 2, 1), lambda r: False):
            filtered = ds.filter(predicate)
            assert list(filtered) == [r for r in records if predicate(r)]
            assert_index_matches_scan(filtered, probes)

    def test_missing_lookup_message(self, records):
        with pytest.raises(MeasurementError) as info:
            Dataset(records).lookup([1, 1, 0, 0], 3200, 1)
        assert str(info.value) == "no measurement for ((1, 1, 0, 0), 3200, 1)"
