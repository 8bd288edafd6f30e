"""Tests for the CLI entry point and the configuration dataclasses."""

import dataclasses
import math

import pytest

from repro import constants as C
from repro.cli import build_parser, main
from repro.cloud import CostModel
from repro.config import (HadoopConfig, HostConfig, PlatformConfig,
                          TopologySpec, VMConfig)
from repro.errors import ConfigError, ResourceError
from repro.sim import FairShareSystem, SharedResource, Simulator
from repro.virt.datacenter import Datacenter


# --- CLI -------------------------------------------------------------------

def test_parser_knows_all_experiments():
    parser = build_parser()
    for name in ("table1", "fig2", "fig3", "fig4", "fig5", "table2",
                 "fig6", "fig7", "fig8", "schedule", "telemetry", "all"):
        args = parser.parse_args([name])
        assert args.experiment == name


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_cli_runs_fig8(capsys):
    assert main(["fig8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out
    assert "sample-data" in out
    assert "+--" in out  # ASCII panel border


def test_cli_quick_fig6(capsys):
    assert main(["fig6", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "fig6" in out and "canopy_s" in out


def test_cli_seed_changes_results(capsys):
    main(["fig8", "--seed", "1"])
    first = capsys.readouterr().out
    main(["fig8", "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


# --- configs -----------------------------------------------------------------

def test_hadoop_config_defaults_match_paper_era():
    config = HadoopConfig()
    assert config.dfs_block_size == 64 * C.MiB
    assert config.dfs_replication >= 1
    assert config.map_tasks_maximum == 2
    assert config.reduce_tasks_maximum == 2


def test_hadoop_config_validation():
    with pytest.raises(ConfigError):
        HadoopConfig(dfs_replication=0)
    with pytest.raises(ConfigError):
        HadoopConfig(dfs_block_size=1024)
    with pytest.raises(ConfigError):
        HadoopConfig(map_tasks_maximum=0)
    with pytest.raises(ConfigError):
        HadoopConfig(shuffle_parallel_copies=0)
    with pytest.raises(ConfigError):
        HadoopConfig(task_startup_s=-1.0)
    with pytest.raises(ConfigError):
        HadoopConfig(job_localization_bytes=-1)


def test_hadoop_config_replace_is_pure():
    base = HadoopConfig()
    changed = base.replace(map_tasks_maximum=4)
    assert changed.map_tasks_maximum == 4
    assert base.map_tasks_maximum == 2


def test_platform_config_validation():
    with pytest.raises(ConfigError):
        PlatformConfig(n_hosts=0)
    with pytest.raises(ConfigError):
        PlatformConfig(nfs_bandwidth=0.0)


def test_vm_config_with_memory():
    """Derived configs come from ``dataclasses.replace``, which re-runs
    the validation."""
    vm = VMConfig()
    bigger = dataclasses.replace(vm, memory=2 * C.GiB)
    assert bigger.memory == 2 * C.GiB
    assert vm.memory == C.DEFAULT_VM_MEMORY
    with pytest.raises(ConfigError):
        dataclasses.replace(vm, memory=32 * C.MiB)


def test_host_config_guest_dram():
    host = HostConfig()
    assert host.guest_dram == host.dram - host.dom0_reserved
    with pytest.raises(ConfigError):
        HostConfig(netback_bandwidth=0.0)


def _set_capacity(value):
    resource = SharedResource("link", 100.0)
    FairShareSystem(Simulator()).set_capacity(resource, value)


@pytest.mark.parametrize("build, field", [
    (lambda v: VMConfig(image_size=v), "image_size"),
    (lambda v: HostConfig(netback_bandwidth=v), "netback_bandwidth"),
    (lambda v: HadoopConfig(heartbeat_s=v), "heartbeat_s"),
    (lambda v: HadoopConfig(speculative_slowdown=v), "speculative_slowdown"),
    (lambda v: HadoopConfig(dfs_block_size=v), "dfs_block_size"),
    (lambda v: TopologySpec(tor_bandwidth=v), "tor_bandwidth"),
    (lambda v: TopologySpec(nic_bandwidth=v), "nic_bandwidth"),
    (lambda v: TopologySpec(bridge_bandwidth=v), "bridge_bandwidth"),
    (lambda v: PlatformConfig(nfs_bandwidth=v), "nfs_bandwidth"),
    (lambda v: CostModel(base_s=v), "base_s"),
    (lambda v: CostModel(per_mb_s=v), "per_mb_s"),
    (lambda v: SharedResource("x", v), "capacity"),
    (_set_capacity, "capacity"),
], ids=["vm-size", "host-bandwidth", "hadoop-seconds", "hadoop-ratio",
        "hadoop-bytes", "topology-bandwidth", "topology-override",
        "topology-bridge-override", "platform-bandwidth", "cost-base",
        "cost-slope", "resource", "resource-set-capacity"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected(build, field, value):
    """Every range check is a ``<``/``<=`` comparison, which NaN passes:
    a NaN heartbeat used to construct fine and crash a run mid-way."""
    with pytest.raises((ConfigError, ResourceError), match=field):
        build(value)


@pytest.mark.parametrize("build, field", [
    (lambda: TopologySpec(nic_bandwidth=0.0), "nic_bandwidth"),
    (lambda: TopologySpec(bridge_bandwidth=0.0), "bridge_bandwidth"),
    (lambda: TopologySpec(bridge_bandwidth=-1.0), "bridge_bandwidth"),
    (lambda: TopologySpec(racks=1.5), "racks"),
    (lambda: TopologySpec(vms_per_host="8"), "vms_per_host"),
    (lambda: TopologySpec.parse("1_0x2x8"), "ASCII digits"),
    (lambda: TopologySpec.parse("+1x2x8"), "ASCII digits"),
    (lambda: TopologySpec.parse("1x2x 8"), "ASCII digits"),
    (lambda: TopologySpec.parse("1x\u0662x8"), "ASCII digits"),
    (lambda: TopologySpec.parse("1x2x8x1"), "RxHxV"),
    (lambda: TopologySpec.parse("0x2x8"), ">= 1"),
], ids=["nic-zero", "bridge-zero", "bridge-negative", "racks-float",
        "vms-str", "parse-underscore", "parse-sign", "parse-space",
        "parse-non-ascii-digit", "parse-four-parts", "parse-zero"])
def test_topology_spec_rejects_bad_input_when_built(build, field):
    """An override of 0 used to fall back to the HostConfig default, a
    float count to fail mid-provisioning, and ``int()`` to read ``1_0``
    as 10: each is refused where the spec is built."""
    with pytest.raises(ConfigError, match=field):
        build()


def test_topology_bandwidth_overrides_reach_the_hosts():
    topo = TopologySpec.parse("1x2x2", nic_bandwidth=5e7)
    (host, _other) = Datacenter(PlatformConfig(topology=topo)).machines
    assert host.config.nic_bandwidth == 5e7
    assert host.config.bridge_bandwidth == HostConfig().bridge_bandwidth
    assert TopologySpec.parse("10X2x08") == TopologySpec(10, 2, 8)


def test_constants_sanity():
    # Relationships the models depend on.
    assert C.XEN_NETBACK_BPS < C.GBIT_ETHERNET_BPS < C.VIRTUAL_BRIDGE_BPS
    assert C.NFS_BPS < C.GBIT_ETHERNET_BPS
    assert 0.0 < C.DISK_CACHE_HIT_RATIO < 1.0
    assert C.MIGRATION_SEND_BUDGET_FACTOR > 1.0
    assert C.DEFAULT_VM_MEMORY == 1024 * C.MiB  # the paper's VM shape
