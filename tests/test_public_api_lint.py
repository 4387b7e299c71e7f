"""Lint + behaviour for the top-level API (``repro``) and the config
surface: the canonical names resolve to the deep objects, and spellings
that earlier releases deprecated or removed are gone for good.
"""

import ast
import pathlib
import re
from dataclasses import fields, is_dataclass

import pytest

import repro
from repro.common.config import EngineConf
from repro.common.errors import ConfigError

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_top_level_all_resolves():
    for symbol in repro.__all__:
        assert getattr(repro, symbol, None) is not None, symbol


def test_canonical_names_are_the_deep_objects():
    from repro.common.config import EngineConf, TransportConf
    from repro.engine.cluster import LocalCluster
    from repro.streaming.context import StreamingContext

    assert repro.LocalCluster is LocalCluster
    assert repro.StreamingContext is StreamingContext
    assert repro.EngineConf is EngineConf
    assert repro.TransportConf is TransportConf


def test_removed_spellings_fail_loudly():
    for alias in ("Cluster", "Config", "StreamContext", "DEPRECATED_ALIASES"):
        with pytest.raises(AttributeError):
            getattr(repro, alias)
    for kwarg in ("heartbeat_interval_s", "heartbeat_timeout_s"):
        with pytest.raises(TypeError):
            EngineConf(**{kwarg: 0.1})
    for kwargs in ({"enable_heartbeats": False}, {"rpc_latency_s": 0.0}):
        with pytest.raises(TypeError):
            repro.LocalCluster(EngineConf(num_workers=1), **kwargs)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.DoesNotExist


def test_docstring_documents_the_migration():
    doc = repro.__doc__
    for old_path in (
        "repro.engine.cluster.LocalCluster",
        "repro.common.config.EngineConf",
        "repro.streaming.context.StreamingContext",
        "repro.common.config.TransportConf",
    ):
        assert old_path in doc, f"migration table must mention {old_path}"


def test_engine_conf_has_no_templates_section():
    # Execution templates were removed: a configuration that still names
    # them is rejected with the valid keys listed, not silently ignored.
    with pytest.raises(ConfigError, match="valid keys") as err:
        EngineConf.from_dict({"templates": {"enabled": True}})
    assert "transport" in str(err.value) and "elastic" in str(err.value)
    assert "templates" not in {f.name for f in fields(EngineConf)}


def test_ha_conf_has_no_journal_tuning_knobs():
    # Every journal append is fsynced and compaction follows the snapshot
    # size, so the two knobs that tuned them are rejected, not ignored.
    retired = "snapshot_every" "_n_groups"
    with pytest.raises(ConfigError, match="valid keys") as err:
        EngineConf.from_dict({"ha": {retired: 4}})
    assert "wal_dir" in str(err.value) and retired in str(err.value)


def test_elastic_conf_has_no_policy_knob():
    # The controller builds a SignalScalingPolicy when given no policy
    # object, so a configuration that still names one is rejected.
    with pytest.raises(ConfigError, match="valid keys") as err:
        EngineConf.from_dict({"elastic": {"policy": "signals"}})
    assert "cooldown_groups" in str(err.value) and "policy" in str(err.value)


def test_removed_data_plane_names_appear_nowhere():
    removed = (
        "REPRO_RECORD_BLOCKS",
        "REPRO_SHM_SHUFFLE",
        "REPRO_NET_ASYNC",
        "RecordBlock",
        "SegmentRegistry",
        "AsyncMessageServer",
        # Execution templates and the stage-blob cache-size knob.
        "Template" "Conf",
        "REPRO_" "TEMPLATES",
        "instantiate" "_template",
        "template" "_epoch",
        "stage_blob" "_cache_entries",
        # The concurrent shuffle-fetch / group-launch pool size.
        "max_concurrent" "_fetches",
        # The worker-side state replica and its migration protocol.
        "_state" "_shards",
        "Shard" "Map",
        "Migration" "Executor",
        "ShardedState" "Store",
        "migration" ".shards_moved",
        # Frame compression and its flagged v2 header.
        "DataPlane" "Conf",
        "REPRO_NET" "_COMPRESSION",
        "compress" "_payload",
        "FLAG" "_ZLIB",
        "VERSION" "_FLAGS",
        "HEADER" "_FLAGS",
        "bytes_saved" "_compression",
        # Settings nothing set to a second value, and the env switches
        # that armed features behind EngineConf's back.
        "reuse_intermediate" "_on_recovery",
        "start" "_method",
        "rpc_latency" "_s",
        "decrease" "_step",
        "max_samples" "_per_delta",
        "signal_window" "_s",
        "max_worker" "_kills",
        "SchedulingMode" ".PIPELINED",
        "_env" "_flag",
        "REPRO_" "TELEMETRY",
        "REPRO_" "ELASTIC",
        "REPRO_" "HA",
        "REPRO_" "CHAOS",
        # Journal records and knobs recovery never read.
        "fsync_every" "_n",
        "snapshot_every" "_n_groups",
        "record" "_job",
        "locations" "_digest",
        "wal" "_lag",
        # The second and third readings of a group, and the policy knob.
        "observe" "_signals",
        "decide_with" "_signals",
        "resolve" "_policy",
        "ELASTIC" "_POLICIES",
        "Batch" "Stats",
        "batch" "_stats",
        "Coordination" "Ledger",
        "last_group" "_ledger",
    )
    files = [REPO_ROOT / "README.md"]
    for top in ("src", "docs", ".github"):
        files += [p for p in (REPO_ROOT / top).rglob("*") if p.is_file()]
    offenders = []
    for path in files:
        if path.suffix == ".pyc":
            continue
        text = path.read_text(errors="replace")
        offenders += [
            f"{path.relative_to(REPO_ROOT)}: {name}" for name in removed if name in text
        ]
    assert not offenders, "\n".join(offenders)


def test_only_deployment_switches_read_the_environment():
    """``src`` reads exactly these ``REPRO_*`` variables: the two CI
    matrix defaults and the soak's journal directory."""
    pattern = re.compile(
        r"(?:environ\.get\(|environ\[|getenv\()\s*[\"'](REPRO_[A-Z0-9_]+)"
    )
    read = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        read |= set(pattern.findall(path.read_text()))
    assert read == {"REPRO_TRANSPORT", "REPRO_EXECUTOR_BACKEND", "REPRO_SOAK_WAL_ROOT"}


def test_engine_conf_settable_value_count():
    """Every EngineConf leaf value is an option tests and benchmarks must
    cover; a new one is a deliberate decision, not a drive-by."""

    def leaves(conf):
        return sum(
            leaves(value) if is_dataclass(value) else 1
            for value in (getattr(conf, f.name) for f in fields(conf))
        )

    assert leaves(EngineConf()) == 47


def test_only_stage_payloads_use_the_closure_pickler():
    """Code travels only in stage blobs: inside ``src/repro`` the closure
    pickler is imported by the stage-blob cache and the process executor
    and nowhere else.  Envelopes, reports, replies and acknowledgements
    are data and go through stdlib pickle."""
    closure_names = {"dumps_closure", "loads_closure"}
    package = REPO_ROOT / "src" / "repro"
    exempt = {"dag/serde.py", "dag/__init__.py"}  # definition and re-export
    importers = set()
    for path in package.rglob("*.py"):
        rel = path.relative_to(package).as_posix()
        if rel in exempt:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and closure_names & {
                alias.name for alias in node.names
            }:
                importers.add(rel)
    assert importers == {"net/stageblobs.py", "engine/executors.py"}
