"""Tests for the Table II region/price data."""

import pytest

from repro.cloud.instance import MEDIUM, SMALL
from repro.cloud.region import DEFAULT_REGION, EC2_REGIONS, Region, region
from repro.errors import PlatformError


class TestTableII:
    def test_seven_regions(self):
        assert len(EC2_REGIONS) == 7

    def test_paper_small_prices(self):
        expected = {
            "us-east-virginia": 0.080,
            "us-west-oregon": 0.080,
            "us-west-california": 0.090,
            "eu-dublin": 0.085,
            "asia-singapore": 0.085,
            "asia-tokyo": 0.092,
            "sa-sao-paulo": 0.115,
        }
        for name, price in expected.items():
            assert EC2_REGIONS[name].price("small") == pytest.approx(price)

    def test_cost_per_core_progression(self):
        """Table II prices follow small x {1,2,4,8} exactly."""
        for r in EC2_REGIONS.values():
            s = r.price("small")
            assert r.price("medium") == pytest.approx(2 * s)
            assert r.price("large") == pytest.approx(4 * s)
            assert r.price("xlarge") == pytest.approx(8 * s)

    def test_paper_transfer_prices(self):
        assert EC2_REGIONS["us-east-virginia"].transfer_out_per_gb == 0.12
        assert EC2_REGIONS["asia-singapore"].transfer_out_per_gb == 0.19
        assert EC2_REGIONS["asia-tokyo"].transfer_out_per_gb == 0.201
        assert EC2_REGIONS["sa-sao-paulo"].transfer_out_per_gb == 0.25

    def test_default_region_is_cheapest(self):
        assert DEFAULT_REGION.name == "us-east-virginia"


class TestRegionApi:
    def test_price_accepts_instance_type(self):
        r = EC2_REGIONS["eu-dublin"]
        assert r.price(SMALL) == r.price("small")
        assert r.price(MEDIUM) == pytest.approx(0.17)

    def test_price_unknown_type(self):
        with pytest.raises(PlatformError):
            DEFAULT_REGION.price("nano")

    def test_lookup(self):
        assert region("eu-dublin").name == "eu-dublin"
        with pytest.raises(PlatformError):
            region("mars-olympus")

    def test_validation(self):
        with pytest.raises(PlatformError):
            Region("", {"small": 0.1}, 0.1)
        with pytest.raises(PlatformError):
            Region("r", {"small": -0.1}, 0.1)
        with pytest.raises(PlatformError):
            Region("r", {"small": 0.1}, -0.1)

    def test_nan_price_rejected(self):
        with pytest.raises(PlatformError, match="finite"):
            Region("r", {"small": float("nan"), "medium": 0.2}, 0.1)

    def test_inf_price_rejected(self):
        with pytest.raises(PlatformError, match="finite"):
            Region("r", {"small": 0.1, "medium": float("inf")}, 0.1)

    def test_nan_transfer_price_rejected(self):
        with pytest.raises(PlatformError, match="finite"):
            Region("r", {"small": 0.1}, float("nan"))

    def test_zero_price_private_region_allowed(self):
        # an owned cluster: free compute, free egress
        r = Region("lab", {"small": 0.0, "xlarge": 0.0}, 0.0)
        assert r.name == "lab"
        assert r.price("xlarge") == 0.0
