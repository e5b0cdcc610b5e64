"""The calibration loop driven in process over a file-backed log.

One drift scenario, replayed through ``Calibrator.ingest`` directly (no
server): healthy traffic scores clean, a degraded network fires the
Page-Hinkley alarm within one pass over the calibration family, a refit on
the re-measured construction campaign wins the shadow evaluation on the
held-out live tail, promotion hot-swaps the serving registry, rollback
restores the prior generation, and a fresh loop over the same on-disk log
alarms at the same sequence number.
"""

from __future__ import annotations

from repro.calibrate import (
    Calibrator,
    DriftConfig,
    DriftDetector,
    ModelVersions,
    ObservationLog,
    Recalibrator,
)
from repro.core.persistence import save_pipeline
from repro.serve import ModelRegistry


def test_drift_refit_promote_rollback_and_replay(
    tmp_path, incumbent, base_spec, drifted_spec, drifted_campaign, make_record
):
    traffic_configs = incumbent.calibration_configs()
    n_traffic = incumbent.calibration_size()
    serving_dir = tmp_path / "serving"
    save_pipeline(
        incumbent, serving_dir, include_evaluation=incumbent.graph.has("evaluation")
    )
    registry = ModelRegistry()
    registry.add("cluster", serving_dir)
    seed_fingerprint = registry.get("cluster").fingerprint
    log_path = tmp_path / "observations.jsonl"

    calibrator = Calibrator(
        "cluster",
        pipeline_provider=lambda: registry.get("cluster").pipeline,
        log=ObservationLog(log_path),
        detector=DriftDetector(DriftConfig(delta=0.02, threshold=0.5)),
        versions=ModelVersions(tmp_path / "versions"),
    )

    def observe(spec, config, trial):
        record = make_record(spec, config, n_traffic, trial=trial)
        return calibrator.ingest(record, source="live")

    # 1. Healthy traffic: residuals at rounding error, no drift.
    for config in traffic_configs:
        result = observe(base_spec, config, 0)
        assert result.residual is not None and abs(result.residual) < 1e-9
    assert not calibrator.drifted

    # 2. The same traffic on the degraded network alarms within one pass.
    for config in traffic_configs:
        last = observe(drifted_spec, config, 1)
        assert last.residual is not None and last.residual > 1.0
    assert calibrator.drifted
    alarmed_at = calibrator.detector.state.alarmed_at

    # 3. Refit evidence, then a drifted live tail (the shadow holdout).
    calibrator.replay_dataset(drifted_campaign.dataset, source="replay")
    for config in traffic_configs:
        observe(drifted_spec, config, 2)

    # 4. Refit and shadow-evaluate on exactly the live tail.
    calibrator.recalibrator = Recalibrator(
        holdout_fraction=(len(traffic_configs) + 0.5) / len(calibrator.log)
    )
    info, shadow = calibrator.refit()
    assert shadow.holdout_size == len(traffic_configs)
    assert shadow.candidate_wins, shadow.describe()
    assert info.parent_fingerprint == seed_fingerprint
    assert info.fingerprint != seed_fingerprint

    # 5. Promotion hot-swaps the registry; rollback restores it.
    promoted = calibrator.promote(registry=registry)
    assert registry.get("cluster").fingerprint == promoted.fingerprint
    assert not calibrator.drifted
    rolled = calibrator.rollback(registry=registry)
    assert registry.get("cluster").fingerprint == seed_fingerprint
    assert rolled.version_id == "v0001"

    # 6. Determinism: a fresh loop over the same log replays the alarm at
    #    the same sequence number.
    replayer = Calibrator(
        "cluster",
        pipeline_provider=lambda: calibrator.versions.load_pipeline("v0001"),
        log=ObservationLog(log_path),
        detector=DriftDetector(DriftConfig(delta=0.02, threshold=0.5)),
    )
    replayer.replay_log()
    assert replayer.detector.state.alarmed_at == alarmed_at
