"""Model store: every fitted N-T and P-T model of a campaign, indexed.

The store is built from a construction dataset in one pass (the paper's
"model construction" step — the one it times at 0.69 ms for 54
configurations) and then queried by the binning selector and the
optimizer.  It also records how long its own construction took, so the
benches can report the model-construction cost alongside the measurement
cost, as the paper does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.model_api import TimeModel, model_from_dict, model_to_dict
from repro.core.nt_model import NTModel
from repro.core.pt_model import PTModel
from repro.errors import ModelError
from repro.measure.dataset import Dataset
from repro.perf.cache import model_fingerprint


@dataclass
class ModelStore:
    """Fitted models of one campaign."""

    nt: Dict[Tuple[str, int, int], NTModel] = field(default_factory=dict)
    """N-T models keyed by ``(kind, P, Mi)``."""

    pt: Dict[Tuple[str, int], PTModel] = field(default_factory=dict)
    """P-T models keyed by ``(kind, Mi)``."""

    build_seconds: float = 0.0

    # -- queries ---------------------------------------------------------------

    def nt_model(self, kind: str, p: int, mi: int) -> NTModel:
        try:
            return self.nt[(kind, p, mi)]
        except KeyError:
            raise ModelError(f"no N-T model for ({kind}, P={p}, Mi={mi})") from None

    def pt_model(self, kind: str, mi: int) -> PTModel:
        try:
            return self.pt[(kind, mi)]
        except KeyError:
            raise ModelError(f"no P-T model for ({kind}, Mi={mi})") from None

    def has_nt(self, kind: str, p: int, mi: int) -> bool:
        return (kind, p, mi) in self.nt

    def has_pt(self, kind: str, mi: int) -> bool:
        return (kind, mi) in self.pt

    def nt_family(self, kind: str, mi: int) -> List[NTModel]:
        """All N-T models of one kind at fixed Mi, ordered by P."""
        models = [
            model
            for (k, p, m_i), model in self.nt.items()
            if k == kind and m_i == mi
        ]
        return sorted(models, key=lambda m: m.p)

    def kinds(self) -> List[str]:
        names: List[str] = []
        for kind, _, _ in self.nt:
            if kind not in names:
                names.append(kind)
        for kind, _ in self.pt:
            if kind not in names:
                names.append(kind)
        return names

    def mi_values(self, kind: str) -> List[int]:
        out = sorted(
            {mi for (k, _, mi) in self.nt if k == kind}
            | {mi for (k, mi) in self.pt if k == kind}
        )
        return out

    @property
    def model_count(self) -> int:
        return len(self.nt) + len(self.pt)

    def models(self) -> Iterator[TimeModel]:
        """Every fitted/composed model in a stable order (sorted N-T keys,
        then sorted P-T keys) — the iteration the estimator facade's
        inventory and fingerprint are built on."""
        for key in sorted(self.nt):
            yield self.nt[key]
        for key in sorted(self.pt):
            yield self.pt[key]

    def add(self, model: TimeModel) -> None:
        """Index a model under its natural key, dispatching on the registry
        tag (never on the concrete class)."""
        if model.model_type == "nt":
            self.nt[(model.kind_name, model.p, model.mi)] = model  # type: ignore[union-attr,attr-defined]
        elif model.model_type == "pt":
            self.pt[(model.kind_name, model.mi)] = model  # type: ignore[assignment]
        else:
            raise ModelError(
                f"ModelStore holds nt/pt models, not {model.model_type!r}"
            )

    def fingerprint(self) -> str:
        """Stable hash over every model's own fingerprint (plus the key
        order), so two stores hash equal iff they estimate identically."""
        return model_fingerprint(
            tuple(model.fingerprint() for model in self.models())
        )

    # -- construction -------------------------------------------------------------

    @classmethod
    def fit_dataset(
        cls,
        dataset: Dataset,
        pt_sizes: Optional[Sequence[float]] = None,
        weighting: str = "uniform",
    ) -> "ModelStore":
        """Fit every model the construction dataset supports.

        * one N-T model per single-kind configuration family with >= 4
          distinct ``N``;
        * one P-T model per ``(kind, Mi)`` whose N-T family spans >= 3
          distinct ``P``.

        ``pt_sizes`` are the sampling sizes for the P-T integration
        (defaults to the dataset's construction sizes); ``weighting``
        selects the N-T least-squares objective (see
        :meth:`repro.core.nt_model.NTModel.fit`).
        """
        started = time.perf_counter()
        store = cls()
        sizes = pt_sizes if pt_sizes is not None else dataset.sizes()

        for config_tuple in dataset.config_tuples():
            subset = dataset.for_config(config_tuple)
            first = subset[0]
            if not first.is_single_kind:
                continue  # heterogeneous runs are evaluation, not construction
            kind = next(km.kind_name for km in first.per_kind if km.pe_count > 0)
            if len(subset.sizes()) < 4:
                continue
            model = NTModel.fit_dataset(subset, kind, config_tuple, weighting=weighting)
            store.nt[(kind, model.p, model.mi)] = model

        for kind in store.kinds():
            for mi in store.mi_values(kind):
                family = store.nt_family(kind, mi)
                if len({m.p for m in family}) < 3:
                    continue
                store.pt[(kind, mi)] = PTModel.fit_from_nt_family(family, sizes)

        store.build_seconds = time.perf_counter() - started
        return store

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> str:
        """Format-2 wire form: one flat type-tagged model list (the
        registry's :func:`~repro.core.model_api.model_to_dict`), so new
        model classes persist without touching this module."""
        payload = {
            "format": 2,
            "models": [model_to_dict(model) for model in self.models()],
            "build_seconds": self.build_seconds,
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ModelStore":
        """Load either wire format: the legacy ``nt``/``pt`` lists
        (format 1) or the type-tagged ``models`` list (format 2)."""
        payload = json.loads(text)
        store = cls(build_seconds=float(payload.get("build_seconds", 0.0)))
        if "models" in payload:
            for data in payload["models"]:
                store.add(model_from_dict(data))
            return store
        for data in payload.get("nt", []):
            model = NTModel.from_dict(data)
            store.nt[(model.kind_name, model.p, model.mi)] = model
        for data in payload.get("pt", []):
            model = PTModel.from_dict(data)
            store.pt[(model.kind_name, model.mi)] = model
        return store

    def save(self, path: Path | str) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Path | str) -> "ModelStore":
        return cls.from_json(Path(path).read_text())

    def summary(self) -> str:
        lines = [
            f"ModelStore: {len(self.nt)} N-T + {len(self.pt)} P-T models "
            f"(built in {self.build_seconds * 1e3:.2f} ms)"
        ]
        for kind in self.kinds():
            nt_count = sum(1 for (k, _, _) in self.nt if k == kind)
            pt_mis = sorted(mi for (k, mi) in self.pt if k == kind)
            composed = [
                mi for (k, mi), m in self.pt.items() if k == kind and m.is_composed
            ]
            lines.append(
                f"  {kind}: {nt_count} N-T, P-T for Mi={pt_mis}"
                + (f" (composed: {sorted(composed)})" if composed else "")
            )
        return "\n".join(lines)
