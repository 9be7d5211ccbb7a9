"""Tests for BTU billing and banded transfer pricing, with hypothesis
properties on the rounding arithmetic."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.billing import BillingModel
from repro.cloud.instance import LARGE, SMALL
from repro.cloud.region import EC2_REGIONS
from repro.errors import BillingError

US = EC2_REGIONS["us-east-virginia"]
SP = EC2_REGIONS["sa-sao-paulo"]


@pytest.fixture
def billing() -> BillingModel:
    return BillingModel()


class TestBtus:
    def test_zero_uptime_is_free(self, billing):
        assert billing.btus(0.0) == 0

    def test_any_uptime_pays_a_full_btu(self, billing):
        assert billing.btus(1.0) == 1
        assert billing.btus(3599.0) == 1

    def test_exact_boundary(self, billing):
        assert billing.btus(3600.0) == 1
        assert billing.btus(7200.0) == 2

    def test_just_over_boundary(self, billing):
        assert billing.btus(3600.01) == 2

    def test_negative_uptime(self, billing):
        with pytest.raises(BillingError):
            billing.btus(-1.0)

    def test_paid_seconds(self, billing):
        assert billing.paid_seconds(100.0) == 3600.0
        assert billing.paid_seconds(4000.0) == 7200.0


class TestVmCost:
    def test_small_us_east(self, billing):
        assert billing.vm_cost(1800.0, SMALL, US) == pytest.approx(0.08)

    def test_multi_btu(self, billing):
        assert billing.vm_cost(7300.0, SMALL, US) == pytest.approx(3 * 0.08)

    def test_large_price(self, billing):
        assert billing.vm_cost(3600.0, LARGE, US) == pytest.approx(0.32)


class TestRemainingInBtu:
    def test_fresh_vm_has_full_btu(self, billing):
        assert billing.remaining_in_btu(0.0) == 3600.0

    def test_mid_btu(self, billing):
        assert billing.remaining_in_btu(1000.0) == pytest.approx(2600.0)

    def test_exact_boundary_gives_full_btu(self, billing):
        assert billing.remaining_in_btu(3600.0) == 3600.0

    def test_negative(self, billing):
        with pytest.raises(BillingError):
            billing.remaining_in_btu(-5.0)


class TestTransferCost:
    def test_intra_region_free(self, billing):
        assert billing.transfer_cost(100.0, US, US) == 0.0

    def test_first_gb_free(self, billing):
        assert billing.transfer_cost(1.0, US, SP) == 0.0

    def test_band_charges_source_price(self, billing):
        # 5 GB total: first 1 free, 4 billed at the source region's rate
        assert billing.transfer_cost(5.0, US, SP) == pytest.approx(4 * 0.12)
        assert billing.transfer_cost(5.0, SP, US) == pytest.approx(4 * 0.25)

    def test_cumulative_monthly_total(self, billing):
        # already past the free tier: the whole new volume is billed
        assert billing.transfer_cost(3.0, US, SP, monthly_total_gb=10.0) == (
            pytest.approx(3 * 0.12)
        )

    def test_above_band_ceiling_free(self, billing):
        assert billing.transfer_cost(5.0, US, SP, monthly_total_gb=20_000.0) == 0.0

    def test_straddles_ceiling(self, billing):
        cost = billing.transfer_cost(100.0, US, SP, monthly_total_gb=10_200.0)
        assert cost == pytest.approx(40 * 0.12)  # only up to 10240 GB billed

    def test_zero_volume(self, billing):
        assert billing.transfer_cost(0.0, US, SP) == 0.0

    def test_negative_volume(self, billing):
        with pytest.raises(BillingError):
            billing.transfer_cost(-1.0, US, SP)


class TestValidation:
    def test_bad_btu(self):
        with pytest.raises(BillingError):
            BillingModel(btu_seconds=0)

    @pytest.mark.parametrize("btu", [float("nan"), float("inf")])
    def test_non_finite_btu(self, btu):
        with pytest.raises(BillingError):
            BillingModel(btu_seconds=btu)

    def test_bad_band(self):
        with pytest.raises(BillingError):
            BillingModel(transfer_free_gb=100.0, transfer_band_ceiling_gb=1.0)


class TestBillingProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1e7, allow_nan=False))
    def test_paid_at_least_uptime(self, uptime):
        b = BillingModel()
        assert b.paid_seconds(uptime) >= uptime - 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.001, 1e7, allow_nan=False))
    def test_paid_within_one_btu_of_uptime(self, uptime):
        b = BillingModel()
        assert b.paid_seconds(uptime) < uptime + b.btu_seconds + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1e7), st.floats(0, 1e7))
    def test_btus_monotonic(self, a, b):
        bill = BillingModel()
        lo, hi = sorted((a, b))
        assert bill.btus(lo) <= bill.btus(hi)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1e6, allow_nan=False))
    def test_remaining_in_half_open_btu(self, uptime):
        b = BillingModel()
        r = b.remaining_in_btu(uptime)
        assert 0 < r <= b.btu_seconds

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 200, allow_nan=False),
    )
    def test_transfer_cost_splits_additively(self, v1, v2, base):
        """Billing v1 then v2 equals billing v1+v2 at once."""
        b = BillingModel()
        together = b.transfer_cost(v1 + v2, US, SP, monthly_total_gb=base)
        split = b.transfer_cost(v1, US, SP, monthly_total_gb=base) + b.transfer_cost(
            v2, US, SP, monthly_total_gb=base + v1
        )
        assert together == pytest.approx(split, abs=1e-9)
