"""The model API: one protocol for every execution-time model.

The paper's method is a *family* of interchangeable estimators — the N-T
model (Section 3.2), the P-T model (Section 3.3) and the unified
two-variable model (future-work item 1) — that all answer the same
question: "how long do this kind's processes run at problem order ``N``
(and total process count ``P``)?".  :class:`TimeModel` is that question
as a protocol; every concrete model satisfies it, and everything above
the model layer (the estimator facade, the cache fingerprinting, the
persistence format, the CLI inventory) talks to models only through it.

Three pieces live here:

* :class:`TimeModel` — the structural protocol (vectorized
  ``predict_ta/tc/total``, domain metadata, ``fingerprint()``,
  serialization and composition);
* :class:`TimeModelMixin` — the shared behavior every concrete model
  inherits (total = ta + tc, fingerprinting, domain checks), so the
  model classes hold only their own coefficients and math;
* the **model registry** — type-tagged serialization
  (:func:`model_to_dict` / :func:`model_from_dict`), the single place
  that maps a wire-format tag like ``"nt"`` to a concrete class.
  Registering a class (:func:`register_model`) is what makes it
  persistable and loadable; nothing else in the repository dispatches on
  concrete model types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Type,
    runtime_checkable,
)

import numpy as np

from repro.errors import ModelError
from repro.perf.cache import model_fingerprint


@dataclass(frozen=True)
class ModelDomain:
    """The region a model was fitted on — predictions outside it are
    extrapolations (the regime where the paper's NS protocol fails)."""

    n_range: Tuple[int, int]
    p_range: Optional[Tuple[int, int]] = None

    def contains(self, n: float, p: Optional[float] = None) -> bool:
        if not (self.n_range[0] <= n <= self.n_range[1]):
            return False
        if self.p_range is not None and p is not None:
            return self.p_range[0] <= p <= self.p_range[1]
        return True


@runtime_checkable
class TimeModel(Protocol):
    """What every execution-time model must answer.

    ``predict_*`` accept scalars or arrays for ``n``; models that do not
    depend on the total process count (the N-T model is fitted at fixed
    ``P``) ignore the ``p`` argument, so callers can always pass it.
    """

    kind_name: str
    mi: int
    model_type: str  # registry tag, set by @register_model

    def predict_ta(self, n, p=None): ...
    def predict_tc(self, n, p=None): ...
    def predict_total(self, n, p=None): ...

    @property
    def domain(self) -> ModelDomain: ...
    def extrapolating(self, n: float, p: Optional[float] = None) -> bool: ...

    @property
    def is_composed(self) -> bool: ...
    def scaled(self, kind_name: str, ta_factor: float, tc_factor: float) -> "TimeModel": ...

    def to_dict(self) -> Dict[str, object]: ...
    def fingerprint(self) -> str: ...


class TimeModelMixin:
    """Shared behavior of the concrete models.

    Subclasses provide ``predict_ta`` / ``predict_tc``, ``to_dict`` /
    ``from_dict`` (the wire format is per-model) and a ``domain``; the
    mixin supplies everything that used to be triplicated.
    """

    model_type: str = ""  # overwritten by @register_model

    # -- prediction --------------------------------------------------------

    def predict_total(self, n, p=None):
        """Total time = computation + communication (scalar or array)."""
        ta = self.predict_ta(n, p)
        tc = self.predict_tc(n, p)
        if np.ndim(ta) or np.ndim(tc):
            return np.asarray(ta) + np.asarray(tc)
        return ta + tc

    # -- domain ------------------------------------------------------------

    @property
    def domain(self) -> ModelDomain:  # pragma: no cover - overridden
        raise NotImplementedError

    def extrapolating(self, n: float, p: Optional[float] = None) -> bool:
        """True when the query lies outside the fitted region."""
        return not self.domain.contains(n, p)

    # -- composition -------------------------------------------------------

    @property
    def is_composed(self) -> bool:
        """True when this model was derived from another kind's model by
        constant-factor scaling (paper Section 3.5)."""
        return bool(getattr(self, "composed_from", ""))

    @staticmethod
    def _check_scale_factors(ta_factor: float, tc_factor: float) -> None:
        if ta_factor <= 0 or tc_factor <= 0:
            raise ModelError("composition factors must be positive")

    def _check_p(self, p) -> None:
        """Reject ``P < Mi`` queries — that case does not exist (the 'X'
        cells of the paper's Figure 5: ``P = sum Mi`` over active PEs)."""
        if p is None:
            raise ModelError(
                f"{type(self).__name__} ({self.kind_name}, Mi={self.mi}) "
                "needs the total process count P"
            )
        if (p < self.mi) if isinstance(p, int) else np.any(np.asarray(p) < self.mi):
            raise ModelError(
                f"{type(self).__name__} ({self.kind_name}, Mi={self.mi}) "
                f"queried with P < Mi — that case does not exist (paper Fig. 5)"
            )

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable short hash of everything that determines predictions.

        This is the one source of truth the estimate cache and the model
        store hash; it covers the registry tag and the serialized
        coefficients, and deliberately nothing ephemeral (fit timings
        never enter ``to_dict``).
        """
        return model_fingerprint(self.model_type, self.to_dict())


# -- registry ---------------------------------------------------------------

_REGISTRY: Dict[str, Type] = {}


def register_model(tag: str):
    """Class decorator: make a model serializable under ``tag``.

    The tag is the wire-format discriminator of the versioned pipeline
    persistence (format 2 stores ``{"type": tag, ...payload...}``).
    """

    def decorate(cls):
        if tag in _REGISTRY and _REGISTRY[tag] is not cls:
            raise ModelError(f"model tag {tag!r} already registered")
        cls.model_type = tag
        _REGISTRY[tag] = cls
        return cls

    return decorate


def registered_model_types() -> Tuple[str, ...]:
    """The known wire-format tags, sorted (for error messages and docs)."""
    return tuple(sorted(_REGISTRY))


#: ``to_dict`` keys that are identity/metadata, not coefficients.
MODEL_META_KEYS = frozenset(
    ["kind", "p", "mi", "n_range", "p_range", "chisq_ta", "chisq_tc", "composed_from"]
)


def model_to_dict(model: TimeModel) -> Dict[str, object]:
    """Type-tagged serialization: the model's own payload plus its tag."""
    if not getattr(model, "model_type", ""):
        raise ModelError(f"{type(model).__name__} is not a registered model")
    return {"type": model.model_type, **model.to_dict()}


def model_from_dict(data: Mapping[str, object]) -> TimeModel:
    """Reconstruct any registered model from its type-tagged dict."""
    tag = data.get("type")
    cls = _REGISTRY.get(str(tag))
    if cls is None:
        raise ModelError(
            f"unknown model type {tag!r} (known: {', '.join(registered_model_types())})"
        )
    payload = {key: value for key, value in data.items() if key != "type"}
    return cls.from_dict(payload)


def iter_registry() -> Iterator[Tuple[str, Type]]:
    """``(tag, class)`` pairs of every registered model, sorted by tag."""
    yield from sorted(_REGISTRY.items())
