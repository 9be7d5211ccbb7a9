"""Tests for the CloudPlatform facade."""

import math

import pytest

from repro.cloud.billing import BillingModel
from repro.cloud.instance import LARGE, SMALL, InstanceType
from repro.cloud.network import NetworkModel
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import EC2_REGIONS
from repro.errors import PlatformError
from repro.workflows.task import Task


class TestConstruction:
    def test_ec2_defaults(self):
        p = CloudPlatform.ec2()
        assert p.btu_seconds == 3600.0
        assert p.default_region.name == "us-east-virginia"
        assert set(p.catalog) == {"small", "medium", "large", "xlarge"}
        assert p.boot_seconds == 0.0

    def test_override_billing(self):
        p = CloudPlatform.ec2(billing=BillingModel(btu_seconds=60.0))
        assert p.btu_seconds == 60.0

    def test_default_region_must_be_listed(self):
        with pytest.raises(PlatformError):
            CloudPlatform(regions={"eu-dublin": EC2_REGIONS["eu-dublin"]})

    def test_empty_catalog_rejected(self):
        with pytest.raises(PlatformError, match="catalog"):
            CloudPlatform(catalog={})

    def test_negative_boot_rejected(self):
        with pytest.raises(PlatformError):
            CloudPlatform.ec2(boot_seconds=-1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: InstanceType(bad, 1, "x", "x", 1.0),
            lambda bad: InstanceType(1.0, 1, "x", "x", bad),
            lambda bad: NetworkModel(intra_region_latency_s=bad),
            lambda bad: NetworkModel(inter_region_latency_s=bad),
            lambda bad: CloudPlatform.ec2(boot_seconds=bad),
        ],
        ids=["speedup", "link_gbps", "intra_latency", "inter_latency", "boot"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_parameters_rejected(self, build, bad):
        # ``nan < 0`` is false, so a sign test alone let these through
        with pytest.raises(PlatformError):
            build(bad)


class TestQueries:
    def test_itype_lookup(self):
        p = CloudPlatform.ec2()
        assert p.itype("l") is LARGE
        assert p.itype("small") is SMALL
        with pytest.raises(PlatformError):
            p.itype("huge")

    def test_region_lookup(self):
        p = CloudPlatform.ec2()
        assert p.region("eu-dublin").name == "eu-dublin"
        with pytest.raises(PlatformError):
            p.region("nowhere")

    def test_runtime(self):
        p = CloudPlatform.ec2()
        t = Task("t", 2100.0)
        assert p.runtime(t, LARGE) == pytest.approx(1000.0)

    def test_transfer_time_defaults_to_default_region(self):
        p = CloudPlatform.ec2()
        t = p.transfer_time(1.0, SMALL, SMALL)
        assert t == pytest.approx(8.1)

    def test_transfer_time_cross_region(self):
        p = CloudPlatform.ec2()
        local = p.transfer_time(1.0, SMALL, SMALL)
        remote = p.transfer_time(
            1.0,
            SMALL,
            SMALL,
            src_region=p.region("us-east-virginia"),
            dst_region=p.region("eu-dublin"),
        )
        assert remote > local

    def test_cheapest_region(self):
        p = CloudPlatform.ec2()
        assert p.cheapest_region().price("small") == pytest.approx(0.08)


class TestHotPathCaches:
    """runtime/transfer_time are memoized per platform instance."""

    def test_runtime_cache_hit_matches_miss(self):
        p = CloudPlatform.ec2()
        t = Task("t", 2100.0)
        first = p.runtime(t, LARGE)
        assert (2100.0, LARGE.speedup) in p._runtime_cache
        assert p.runtime(t, LARGE) == first == pytest.approx(1000.0)
        # a same-work different task shares the cache entry
        assert p.runtime(Task("u", 2100.0), LARGE) == first
        assert len(p._runtime_cache) == 1

    def test_transfer_cache_distinguishes_locality(self):
        p = CloudPlatform.ec2()
        local = p.transfer_time(1.0, SMALL, SMALL)
        same_vm = p.transfer_time(1.0, SMALL, SMALL, same_vm=True)
        remote = p.transfer_time(
            1.0,
            SMALL,
            SMALL,
            src_region=p.region("us-east-virginia"),
            dst_region=p.region("eu-dublin"),
        )
        assert same_vm == 0.0
        assert remote > local
        assert len(p._transfer_cache) == 3
        # cached replays give the same numbers
        assert p.transfer_time(1.0, SMALL, SMALL) == local
        assert p.transfer_time(1.0, SMALL, SMALL, same_vm=True) == same_vm
        assert len(p._transfer_cache) == 3

    def test_flavor_reusing_a_catalog_name_gets_its_own_entries(self):
        """Regression: the memos were keyed on the flavor's name, so a
        custom flavor named like a catalog one read the catalog's
        cached runtime and transfer time."""
        p = CloudPlatform.ec2()
        fast = InstanceType(speedup=3.0, cores=1, name="small", short="s", link_gbps=10.0)
        task = Task("a", 600.0, "w")
        assert p.runtime(task, SMALL) == 600.0
        assert p.runtime(task, fast) == 200.0
        assert p.transfer_time(1.0, SMALL, SMALL) == pytest.approx(8.1)
        assert p.transfer_time(1.0, fast, fast) == pytest.approx(0.9)

    def test_caches_are_per_instance(self):
        a, b = CloudPlatform.ec2(), CloudPlatform.ec2()
        a.runtime(Task("t", 100.0), SMALL)
        assert b._runtime_cache == {}
