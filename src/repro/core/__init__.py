"""Drizzle's contribution: group scheduling, pre-scheduling, group-size tuning.

These modules are pure control-plane policy — no threads, no I/O — and are
shared by the real threaded engine (:mod:`repro.engine`) and the
discrete-event cluster simulator (:mod:`repro.sim`).
"""

from repro.core.groups import (
    Assignment,
    GroupObservation,
    GroupPlan,
    PlacementPolicy,
    StageTemplate,
    TaskSlot,
    plan_group,
)
from repro.core.prescheduling import (
    DepKey,
    PendingTaskTable,
    all_to_all_deps,
    tree_reduce_deps,
    tree_reduce_num_reducers,
)
from repro.core.tuner import GroupSizeTuner, TunerDecision

__all__ = [
    "Assignment",
    "GroupObservation",
    "GroupPlan",
    "PlacementPolicy",
    "StageTemplate",
    "TaskSlot",
    "plan_group",
    "DepKey",
    "PendingTaskTable",
    "all_to_all_deps",
    "tree_reduce_deps",
    "tree_reduce_num_reducers",
    "GroupSizeTuner",
    "TunerDecision",
]
