"""repro.elastic — live autoscaling at group boundaries.

The subsystem has two layers:

* :mod:`repro.elastic.controller` — the :class:`ElasticController` that
  turns each group's observation into applied resizes via the pluggable
  :mod:`repro.elastic.policies`.  A resize is a membership change plus a
  new reduce-partition count; no state moves, because the driver's
  :class:`~repro.streaming.state.StateStore` is the one copy of it.
* :mod:`repro.elastic.policies` — the scaling policies.

Attribute access is lazy (PEP 562): an eager import of the controller
here would cycle back through the streaming layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "ElasticController": "repro.elastic.controller",
    "ScalePlan": "repro.elastic.controller",
    "ScalingDecision": "repro.elastic.policies",
    "ScalingPolicy": "repro.elastic.policies",
    "ScheduleScalingPolicy": "repro.elastic.policies",
    "SignalScalingPolicy": "repro.elastic.policies",
    "UtilizationScalingPolicy": "repro.elastic.policies",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - import-time types for checkers only
    from repro.elastic.controller import ElasticController, ScalePlan
    from repro.elastic.policies import (
        ScalingDecision,
        ScalingPolicy,
        ScheduleScalingPolicy,
        SignalScalingPolicy,
        UtilizationScalingPolicy,
    )


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.elastic' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
