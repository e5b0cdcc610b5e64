"""Pipeline persistence: measure once, decide often.

In production use, the expensive part of the method is the measurement
campaign (hours of cluster time); the models and the decisions are
milliseconds.  :func:`save_pipeline` writes everything a finished pipeline
learned — the cluster description, the construction dataset, the fitted
models, and the calibrated adjustment — and :func:`load_pipeline`
reconstitutes a pipeline that can estimate and optimize *without
re-running anything* (the evaluation ground truth is optional and only
needed to re-verify).

Layout of a saved pipeline directory::

    cluster.json       the ClusterSpec
    manifest.json      format version, protocol name, seed, adjustment
    construction.json  the measurement Dataset
    models.json        the fitted/composed ModelStore
    evaluation.json    (optional) ground-truth measurements

**Format history.**  Format 1 stored the models as separate ``nt``/``pt``
lists; format 2 stores one flat list of type-tagged model dicts (the
:mod:`repro.core.model_api` registry), so any registered model class
round-trips without changes here; format 3 (current) adds the
``workload`` manifest key (the :mod:`repro.workloads` family tag — the
measurement grid and simulator the pipeline reconstitutes with).
:func:`load_pipeline` reads all three — formats 1 and 2 predate the
workload subsystem and load as implicit ``hpl`` — while directories
written by future formats are rejected with a
:class:`~repro.errors.ModelError` instead of being misread.

Loading injects the saved artifacts into the pipeline's stage graph
(:meth:`~repro.core.stages.StageGraph.set`), in dependency order — the
graph then rebuilds only what was *not* saved (e.g. the evaluation
measurements when ``evaluation.json`` is absent).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional

from repro.cluster.serialize import cluster_from_dict, save_cluster
from repro.core.adjustment import LinearAdjustment
from repro.core.model_store import ModelStore
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.stages import ComposeArtifact, FitArtifact
from repro.errors import MeasurementError, ModelError
from repro.measure.campaign import CampaignResult
from repro.measure.dataset import Dataset
from repro.workloads import create_workload

_MANIFEST = "manifest.json"

#: Manifest format this module writes.
CURRENT_FORMAT = 3
#: Manifest formats this module can read.
SUPPORTED_FORMATS = (1, 2, 3)

#: Artifacts a loadable pipeline must provide, in injection order.
REQUIRED_ARTIFACTS = (_MANIFEST, "cluster.json", "construction.json", "models.json")
#: Artifacts that may be absent (the stage graph rebuilds them on demand).
OPTIONAL_ARTIFACTS = ("evaluation.json",)


def _load_blob(
    blobs: Mapping[str, bytes],
    origins: Mapping[str, str],
    name: str,
    what: str,
    loader,
):
    """Decode and parse one artifact blob, converting corruption into a
    :class:`~repro.errors.ModelError` that names the offending origin.

    Truncated/garbled JSON raises ``json.JSONDecodeError``; bytes that
    parse but lack required structure raise ``KeyError`` / ``TypeError``
    / ``ValueError`` from the loader.  All of those mean the same thing
    to a caller — this pipeline cannot be served — so they surface
    uniformly, with the origin (the file path it was read from),
    instead of as tracebacks.
    """
    origin = origins.get(name, name)
    blob = blobs.get(name)
    if blob is None:
        raise ModelError(f"saved pipeline is missing its {what}: {origin}")
    try:
        return loader(blob.decode("utf-8"))
    except ModelError:
        raise
    except (
        json.JSONDecodeError,
        KeyError,
        TypeError,
        ValueError,
        UnicodeDecodeError,
    ) as exc:
        raise ModelError(f"corrupt {what} in saved pipeline: {origin} ({exc})") from exc


def pipeline_from_blobs(
    blobs: Mapping[str, bytes],
    origins: Optional[Mapping[str, str]] = None,
) -> EstimationPipeline:
    """Reconstitute a pipeline from in-memory artifact bytes.

    ``blobs`` maps artifact filenames (``manifest.json`` …) to the raw
    bytes a saved pipeline directory would contain; ``origins`` maps the
    same names to human-readable locations for error messages (the
    file paths they were read from).  This is the common core behind
    :func:`load_pipeline` and a fleet replica's load path
    (:meth:`repro.serve.registry.ModelRegistry.fleet_entry`) — both
    produce identical pipelines because both land here.
    """
    if origins is None:
        origins = {}
    manifest_origin = origins.get(_MANIFEST, _MANIFEST)
    manifest = _load_blob(blobs, origins, _MANIFEST, "manifest", json.loads)
    if not isinstance(manifest, dict):
        raise ModelError(f"corrupt manifest in saved pipeline: {manifest_origin}")
    version = manifest.get("format")
    if version not in SUPPORTED_FORMATS:
        known = ", ".join(str(v) for v in SUPPORTED_FORMATS)
        raise ModelError(
            f"unknown pipeline format {version!r} in {manifest_origin} "
            f"(this build reads formats {known}); refusing to guess"
        )

    spec = _load_blob(
        blobs, origins, "cluster.json", "cluster description",
        lambda text: cluster_from_dict(json.loads(text)),
    )
    # Formats 1 and 2 predate the workload subsystem: every artifact they
    # describe was an HPL pipeline, so the tag defaults to "hpl".
    workload_tag = str(manifest.get("workload", "hpl"))
    try:
        workload = create_workload(workload_tag)
    except ModelError as exc:
        raise ModelError(f"{exc} in {manifest_origin}") from exc
    try:
        protocol = str(manifest["protocol"])
        plan = workload.plan(protocol)
        seed = int(manifest["seed"])
        cost = {
            (str(kind), int(n)): float(value)
            for kind, n, value in manifest["cost_by_kind_and_n"]
        }
        adjustment = LinearAdjustment.from_dict(manifest["adjustment"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(
            f"corrupt manifest in saved pipeline: {manifest_origin} ({exc!r})"
        ) from exc
    pipeline = EstimationPipeline(
        spec,
        PipelineConfig(protocol=plan.name, seed=seed, workload=workload_tag),
        plan=plan,
    )

    dataset = _load_blob(
        blobs, origins, "construction.json", "construction dataset", Dataset.from_json
    )
    store = _load_blob(
        blobs, origins, "models.json", "model store", ModelStore.from_json
    )

    # Inject in dependency order: StageGraph.set drops everything
    # downstream of the stage it replaces, so upstream artifacts must land
    # before the artifacts that derive from them.
    graph = pipeline.graph
    graph.set(
        "campaign",
        CampaignResult(plan_name=plan.name, dataset=dataset, cost_by_kind_and_n=cost),
    )
    if "evaluation.json" in blobs:
        graph.set(
            "evaluation",
            _load_blob(
                blobs, origins, "evaluation.json", "evaluation dataset",
                Dataset.from_json,
            ),
        )
    # The saved store already contains the composed models; inject it as
    # both the fit and compose artifacts so neither stage re-runs.
    graph.set("fit", FitArtifact(store=store, excluded_paging=Dataset()))
    graph.set("compose", ComposeArtifact(store=store, composed={}))
    graph.set("adjust", adjustment)
    return pipeline


def read_pipeline_blobs(directory: Path | str) -> tuple[dict, dict]:
    """Read a saved pipeline directory's artifact bytes without parsing.

    Returns ``(blobs, origins)`` suitable for :func:`pipeline_from_blobs`
    — the single disk pass shared by :func:`load_pipeline` and the
    fleet supervisor (which must hand its replicas the *same* bytes it
    validated).

    Raises :class:`~repro.errors.MeasurementError` when ``directory`` is
    not a saved pipeline at all.
    """
    src = Path(directory)
    manifest_path = src / _MANIFEST
    if not manifest_path.exists():
        raise MeasurementError(f"{src} is not a saved pipeline (no {_MANIFEST})")
    blobs: dict = {}
    origins: dict = {}
    for name in REQUIRED_ARTIFACTS + OPTIONAL_ARTIFACTS:
        path = src / name
        origins[name] = str(path)
        if path.exists():
            blobs[name] = path.read_bytes()
    return blobs, origins


def save_pipeline(
    pipeline: EstimationPipeline,
    directory: Path | str,
    include_evaluation: bool = True,
) -> Path:
    """Persist a pipeline's learned state; returns the directory."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    save_cluster(pipeline.spec, out / "cluster.json")
    pipeline.campaign.dataset.save(out / "construction.json")
    pipeline.store.save(out / "models.json")
    manifest = {
        "format": CURRENT_FORMAT,
        "protocol": pipeline.plan.name,
        "workload": pipeline.config.workload,
        "seed": pipeline.config.seed,
        "adjustment": pipeline.adjustment.to_dict(),
        "cost_by_kind_and_n": [
            [kind, n, cost]
            for (kind, n), cost in sorted(
                pipeline.campaign.cost_by_kind_and_n.items()
            )
        ],
    }
    (out / _MANIFEST).write_text(json.dumps(manifest, indent=1))
    if include_evaluation:
        pipeline.evaluation.save(out / "evaluation.json")
    return out


def load_pipeline(directory: Path | str) -> EstimationPipeline:
    """Reconstitute a saved pipeline.

    The returned pipeline's campaign, models and adjustment come from disk
    — no simulation (or cluster time) is spent.  Accessing ``evaluation``
    uses the saved ground truth when present, otherwise it re-measures.

    Raises :class:`~repro.errors.MeasurementError` when ``directory`` is
    not a saved pipeline at all, and :class:`~repro.errors.ModelError`
    when it was written by an unknown (newer) manifest format.
    """
    blobs, origins = read_pipeline_blobs(directory)
    return pipeline_from_blobs(blobs, origins)
