import json
import re

import numpy as np
import pytest

from cred.errors import ScenarioError
from cred.scenario import load_samples, load_scenario, read_json, scenario_from_dict
from cred.systems import single_area_toy, three_area_system


class TestScenarioFromDict:
    def test_toy_round_trip_units(self):
        bundle = scenario_from_dict(single_area_toy())
        assert bundle.base_power == 1.0
        assert bundle.model.gov_integral[0] == 5.0
        assert bundle.dispatch.demand[0, 0] == 10.0
        assert bundle.attack_areas == (0,)

    def test_desk_per_unit_conversion(self):
        bundle = scenario_from_dict(three_area_system())
        model = bundle.model
        # 8000 MW s/Hz on a 1000 MW base
        assert model.inertia_sg[0] == pytest.approx(8.0)
        assert model.susceptance[0, 1] == pytest.approx(4.0)
        assert bundle.dispatch.demand[1, 1] == pytest.approx(5.0)
        gen = bundle.dispatch.generators[0]
        assert gen.p_max == pytest.approx(4.0)
        assert gen.marginal_cost == 28.0  # currency per MWh, not converted

    @pytest.mark.parametrize("edit, message", [
        (lambda d: [d], "scenario document must be a JSON object"),
        (lambda d: dict(d, attack={"areas": [0], "static": [0.0, 0.0]}),
         "attack static must list 1 values"),
        (lambda d: dict(d, dispatch=dict(d["dispatch"], periods=[])),
         "dispatch.periods must be non-empty"),
        # the generator and storage checks once escaped as a BuildError
        (lambda d: dict(d, dispatch=dict(d["dispatch"], generators=[
            dict(d["dispatch"]["generators"][0], p_min=5.0, p_max=4.0)])),
         "invalid dispatch section: generator in area 0: need 0 <= p_min <= p_max"),
        (lambda d: dict(d, dispatch=dict(d["dispatch"], storage=[
            {"area": 0, "soc_min": 0.1, "soc_max": 0.9, "efficiency": 2.0,
             "power_limit": 1.0, "energy": 4.0}])),
         "invalid dispatch section: storage efficiency must lie in (0, 1]"),
    ], ids=["not_an_object", "static_length", "no_periods", "p_min_above_p_max",
            "storage_efficiency"])
    def test_each_check_names_its_fault(self, edit, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(edit(single_area_toy()))

    def test_missing_area_field_rejected(self):
        doc = single_area_toy()
        del doc["areas"][0]["damping"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_missing_coupling_rejected(self):
        doc = single_area_toy()
        del doc["coupling"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_attack_area_out_of_range_rejected(self):
        doc = single_area_toy()
        doc["attack"]["areas"] = [3]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_wind_above_capacity_rejected(self):
        doc = single_area_toy()
        doc["dispatch"]["periods"][0]["wind_available"] = [99.0]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_dispatch_section_optional(self):
        doc = single_area_toy()
        del doc["dispatch"]
        bundle = scenario_from_dict(doc)
        assert bundle.dispatch is None
        with pytest.raises(ScenarioError):
            bundle.require_dispatch()

    def test_commitment_length_mismatch_rejected(self):
        doc = single_area_toy()
        doc["dispatch"]["generators"][0]["committed"] = [1, 1]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["attack"].update(areas=[True]),
         "attack area must be an integral number, got True"),
        (lambda d: d["areas"][1].update(ibr_max_power="5000"),
         "areas[1].ibr_max_power must be a number, got '5000'"),
        (lambda d: d["dispatch"]["generators"][0].update(area=0.7),
         "generators[0].area must be an integral number, got 0.7"),
        (lambda d: d["dispatch"]["generators"][0].update(committed=["no", 0, "", 1]),
         "generators[0].committed must hold only 0, 1, true or false"),
        (lambda d: d["dispatch"]["generators"][0].update(committed=[1, 2, 1, 1]),
         "generators[0].committed must hold only 0, 1, true or false"),
        (lambda d: d["dispatch"]["periods"][0].update(demand=[1000.0, "1000", 1000.0]),
         "demand must hold numbers, got '1000'"),
        (lambda d: d["coupling"][0].__setitem__(1, False), "coupling must hold numbers, got False"),
        (lambda d: d.update(omega_max="0.5"), "scenario.omega_max must be a number, got '0.5'"),
        (lambda d: d["areas"][0].update(damping=10**400), "int too large to convert to float"),
    ], ids=["area_true", "string_capacity", "fractional_area", "string_commitment",
            "commitment_two", "string_demand", "boolean_coupling", "string_omega_max",
            "huge_integer"])
    def test_non_numbers_rejected(self, edit, message):
        doc = three_area_system()
        edit(doc)
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert str(info.value).startswith(f"malformed scenario: {message}")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_attack_static_rejected(self, value):
        # rejected where its shape is checked, with or without a dispatch section
        doc = single_area_toy()
        doc["attack"]["static"] = [value]
        for keep_dispatch in (True, False):
            if not keep_dispatch:
                del doc["dispatch"]
            with pytest.raises(ScenarioError, match="attack static must be finite"):
                scenario_from_dict(doc)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -5.0])
    def test_base_power_must_be_positive_and_finite(self, value):
        # NaN once read as a non-finite inertia, and infinity as a zero total inertia
        doc = single_area_toy()
        doc["base_power"] = value
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert str(info.value) == f"base_power must be positive and finite, got {value!r}"

    def test_integral_numbers_and_boolean_commitments_accepted(self):
        doc = three_area_system()
        doc["attack"]["areas"] = [1.0]
        doc["dispatch"]["generators"][0]["area"] = 0.0
        doc["dispatch"]["generators"][0]["committed"] = [True, 1, 1.0, False]
        bundle = scenario_from_dict(doc)
        assert bundle.attack_areas == (1,)
        gen = bundle.dispatch.generators[0]
        assert gen.area == 0 and gen.committed == (1, 1, 1, 0)


class TestFiles:
    def test_load_scenario_from_disk(self, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(single_area_toy()))
        bundle = load_scenario(path)
        assert bundle.model.areas == 1

    def test_load_samples_converts_units(self, tmp_path):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(
            [{"area": 1, "samples": [17590.0, 17110.0]},
             {"area": 1, "samples": [18070.0]}]
        ))
        samples = load_samples(path, base_power=1000.0)
        assert samples == {1: [17.59, 17.11, 18.07]}

    def test_single_record_object_accepted(self, tmp_path):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"area": 0, "samples": [2.0, 3.0]}))
        assert load_samples(path, base_power=1.0) == {0: [2.0, 3.0]}

    @pytest.mark.parametrize("record", [
        {"area": True, "samples": [2.0]},
        {"area": 0.5, "samples": [2.0]},
        {"area": 0, "samples": [2.0, "3.0"]},
        {"area": 0, "samples": [2.0, False]},
        {"area": 0, "samples": [2.0, 10**400]},
    ], ids=["area_true", "fractional_area", "string_sample", "boolean_sample", "huge_sample"])
    def test_non_numbers_rejected(self, tmp_path, record):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(ScenarioError, match="is malformed"):
            load_samples(path, base_power=1.0)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_samples_rejected(self, tmp_path, text):
        # Python's json reads NaN and Infinity, and 1e400 as infinity
        path = tmp_path / "samples.json"
        path.write_text(f'[{{"area": 0, "samples": [2.0]}}, '
                        f'{{"area": 1, "samples": [2.0, {text}]}}]')
        with pytest.raises(ScenarioError) as info:
            load_samples(path, base_power=1.0)
        assert str(info.value) == f"samples file {path} holds a non-finite sample in area 1"

    def test_file_without_records_raises(self, tmp_path):
        path = tmp_path / "samples.json"
        path.write_text("[]")
        with pytest.raises(ScenarioError) as info:
            load_samples(path, base_power=1.0)
        assert str(info.value) == f"samples file {path} holds no records"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ScenarioError, match="^scenario file not found: "):
            load_scenario(tmp_path / "absent.json")
        with pytest.raises(ScenarioError, match="^samples file not found: "):
            load_samples(tmp_path / "absent.json", 1.0)


class TestReadJson:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ScenarioError) as info:
            read_json(path, "scenario")
        assert str(info.value) == f"scenario file not found: {path}"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError) as info:
            read_json(str(path), "samples")
        assert str(info.value) == (f"samples file {path} is not valid JSON: Expecting property "
                                   "name enclosed in double quotes: line 1 column 2 (char 1)")

    @pytest.mark.parametrize("kind, cause", [
        ("directory", IsADirectoryError), ("not_utf8", UnicodeDecodeError),
    ])
    def test_unreadable_file(self, tmp_path, kind, cause):
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"base_power": "\xff"}')
        with pytest.raises(ScenarioError) as info:
            read_json(path, "scenario")
        assert isinstance(info.value.__cause__, cause)
        assert str(info.value) == f"scenario file {path} cannot be read: {info.value.__cause__}"
