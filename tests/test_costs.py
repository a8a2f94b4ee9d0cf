from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, fields

import pytest

from reuseloop.costs import (
    CostProfile,
    benefit_condition_holds,
    delay_comparison,
    expected_task_cost,
    learning_overhead,
    reuse_benefit,
    single_task_cost,
)
from reuseloop.errors import SchemaError, parse_json, read_dataclass

WORKED = CostProfile(
    c_retrieve=0.01, c_exec=6.0, c_plan=1.5, c_collect=0.5, c_train=0.3, c_store=0.05
)


def random_profile(rng):
    return CostProfile(*(rng.uniform(0, 10) for _ in range(7)))


class TestSingleTaskCost:
    def test_zero_profile(self):
        zero = CostProfile()
        assert single_task_cost(zero, z=False) == 0.0
        assert single_task_cost(zero, z=True) == 0.0

    def test_worked_example(self):
        assert single_task_cost(WORKED, z=False) == pytest.approx(6.01)
        assert single_task_cost(WORKED, z=True) == pytest.approx(8.36)

    def test_learning_never_cheaper(self):
        rng = random.Random(1)
        for _ in range(500):
            profile = random_profile(rng)
            gap = single_task_cost(profile, True) - single_task_cost(profile, False)
            assert gap >= 0
            assert gap == pytest.approx(learning_overhead(profile), abs=1e-9)

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError):
            CostProfile(c_plan=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(CostProfile)])
    def test_non_finite_profile_rejected_at_its_field(self, name, value):
        # Else reuse_benefit returns NaN fields and the benefit condition
        # quietly reads False.
        with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
            CostProfile(**{name: value})


class TestExpectedTaskCost:
    def test_full_coverage(self):
        assert expected_task_cost(WORKED, 1.0) == pytest.approx(6.01)

    def test_zero_coverage_equals_learning_cost(self):
        assert expected_task_cost(WORKED, 0.0) == pytest.approx(single_task_cost(WORKED, True))

    def test_half_coverage(self):
        assert expected_task_cost(WORKED, 0.5) == pytest.approx(7.185)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            expected_task_cost(WORKED, 1.5)

    def test_non_increasing_in_p(self):
        rng = random.Random(2)
        for _ in range(500):
            profile = random_profile(rng)
            p1, p2 = sorted((rng.random(), rng.random()))
            assert expected_task_cost(profile, p1) >= expected_task_cost(profile, p2) - 1e-12


class TestReuseBenefit:
    def test_worked_example(self):
        result = reuse_benefit(WORKED, rho=1.0, k=4)
        assert result.delta_c == pytest.approx(2.3)
        assert result.investment == pytest.approx(2.35)
        assert result.b_reuse == pytest.approx(9.2)
        assert result.b_net == pytest.approx(6.85)
        assert benefit_condition_holds(WORKED, 1.0, 4)

    def test_no_reuse_probability(self):
        result = reuse_benefit(WORKED, rho=0.0, k=10)
        assert result.b_net == pytest.approx(-result.investment)
        assert not benefit_condition_holds(WORKED, 0.0, 10)

    def test_no_occasions(self):
        result = reuse_benefit(WORKED, rho=1.0, k=0)
        assert result.b_net == pytest.approx(-result.investment)

    def test_single_reuse_with_storage_cost_not_enough(self):
        assert not benefit_condition_holds(WORKED, rho=1.0, k=1)

    def test_condition_equivalent_to_positive_net(self):
        rng = random.Random(3)
        for _ in range(500):
            profile = random_profile(rng)
            rho, k = rng.random(), rng.randint(0, 12)
            assert benefit_condition_holds(profile, rho, k) == (
                reuse_benefit(profile, rho, k).b_net > 0
            )

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            reuse_benefit(WORKED, rho=1.2, k=1)
        with pytest.raises(ValueError):
            reuse_benefit(WORKED, rho=0.5, k=-1)


class TestDelayComparison:
    def test_equal_delays(self):
        profile = CostProfile(c_delay=2.0, c_exec=1.0)
        result = delay_comparison(profile, 2.0)
        assert result.quasi_total == result.delayed_total

    def test_zero_quasi_delay(self):
        profile = CostProfile(c_delay=2.0, c_exec=1.0)
        result = delay_comparison(profile, 0.0)
        assert result.delayed_total - result.quasi_total == pytest.approx(2.0)

    def test_quasi_never_slower(self):
        rng = random.Random(4)
        for _ in range(500):
            profile = random_profile(rng)
            quasi = rng.uniform(0, profile.c_delay)
            result = delay_comparison(profile, quasi)
            assert result.quasi_total <= result.delayed_total + 1e-12

    def test_excessive_quasi_delay_rejected(self):
        with pytest.raises(ValueError):
            delay_comparison(CostProfile(c_delay=1.0), 1.5)

    @pytest.mark.parametrize("quasi", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_quasi_delay_rejected(self, quasi):
        with pytest.raises(ValueError, match=r"^c_delay_quasi must lie in \[0, c_delay\]"):
            delay_comparison(CostProfile(c_delay=1.0), quasi)


class TestProfileDocuments:
    def test_round_trip(self):
        assert read_dataclass(CostProfile, asdict(WORKED)) == WORKED

    def test_missing_fields_default_to_zero(self):
        profile = read_dataclass(CostProfile, {"c_exec": 3.0})
        assert profile.c_exec == 3.0
        assert profile.c_plan == 0.0

    def test_negative_named(self):
        for doc, field in [({"c_train": -1}, "c_train"), ({"c_plann": 3.0}, "c_plann")]:
            with pytest.raises(SchemaError) as err:
                read_dataclass(CostProfile, doc)
            assert err.value.field == field

    def test_load(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(asdict(WORKED)))
        assert read_dataclass(CostProfile, parse_json(path.read_text(encoding="utf-8"))) == WORKED
