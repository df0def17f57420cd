"""Accuracy margin of the built-in scenario catalog."""

import pytest

from rollgeo.suites import execute_scenario, scenario_by_name, scenario_names

# Every measured invariant stays this factor under its catalog threshold, so
# that no verdict rests on a thin margin.
MARGIN = 5.0


@pytest.mark.parametrize("name", scenario_names())
def test_invariants_keep_a_fivefold_margin(name):
    scenario = scenario_by_name(name)
    record = execute_scenario(scenario)
    assert record["status"] == "ok"
    for key, bound in scenario["thresholds"].items():
        value = record["invariants"][key]
        assert value <= bound / MARGIN, f"{key} = {value:.3g} against threshold {bound:g}"
