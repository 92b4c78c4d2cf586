"""Scenario files, built-in reproductions, runs and sweeps."""

import copy
import dataclasses
import hashlib
import json
import math
import random
import warnings
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

import stirapkit.scenarios
from stirapkit import (DesignError, ScenarioError, SystemSpec, TargetSpec,
                       Trajectory, builtin_names, builtin_scenario, config_hash,
                       load_scenario, run, scenario_to_dict, sweep,
                       write_trajectory_csv)
from stirapkit.scenarios import (SCENARIO_SCHEMA, Bounds, DesignRequest,
                                 _check_bounds, _validate)

from helpers import trajectory_csv_oracle

# Reference parameter tables (peak amplitudes in units of one over the
# width), frozen here independently of the package's own copies.
PUMP_TABLE = [60, 90, 60, 120, 90, 99, 135]
STOKES_TABLE = [
    [90, 15, 0, 150, 36, 18, 60],
    [90, 57, 24, 45, 69, 78, 90],
    [90, 75, 39, 36, 39, 78, 60],
    [60, 18, 24, 75, 66, 48, 120],
    [39, 27, 93, 15, 66, 78, 90],
    [93, 69, 18, 87, 72, 78, 99],
    [36, 54, 48, 57, 96, 78, 135],
]
FIG3_EDITS = [(1, 4, 39), (2, 5, 39), (2, 6, 48), (3, 2, 45), (4, 3, 81),
              (5, 2, 57), (5, 6, 48), (6, 2, 39), (7, 2, 24)]


# The complex-number schema as a "oneOf" of its two forms: the reference the
# type-union form in SCENARIO_SCHEMA must agree with.
ONE_OF_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"},
         "minItems": 2, "maxItems": 2},
    ]
}

COMPLEX_CANDIDATES = [
    0, 3, -2, 10**30, 0.0, 1.5, -2.5e-300, 1e300,
    [], [1], [1.5], [1, 2], [1.0, -2.5], [0, 0.0], [1, 2, 3], [[1, 2]],
    [1, [2]], [1, "a"], ["a", "b"], [True, 1], [1, None], "x", "", "1",
    True, False, None, {}, {"re": 1, "im": 2},
]


def small_scenario_dict(**kwargs):
    base = {
        "label": "mini",
        "system": {
            "n_intermediate": 1,
            "n_degenerate": 1,
            "mu_pump": [1.0],
            "mu_stokes": [[1.0]],
        },
        "target": [1.0],
        "fields": {
            "peak_rabi_pump": [60.0],
            "peak_rabi_stokes": [[60.0]],
            "width": 1.0,
        },
        "propagation": {"stride": 0.05},
    }
    base.update(kwargs)
    return base


def design_scenario_dict(**design):
    """A two-channel design request; ``design`` entries replace the defaults."""
    raw = small_scenario_dict()
    del raw["fields"]
    raw["system"] = {"n_intermediate": 2, "n_degenerate": 2,
                     "mu_pump": [1.0, 1.0],
                     "mu_stokes": [[1.0, 0.3], [0.4, 1.0]]}
    raw["target"] = [0.0, 1.0]
    raw["design"] = {"stokes_amplitudes": [120.0, 80.0], **design}
    return raw


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ("fig2", "fig3", "fig4", "fig5")

    def test_fig2_tables(self):
        scenario = builtin_scenario("fig2")
        assert scenario.system.n_intermediate == 7
        assert scenario.system.n_degenerate == 7
        assert np.allclose(scenario.fields.peak_rabi_pump, PUMP_TABLE)
        assert np.allclose(scenario.fields.peak_rabi_stokes, STOKES_TABLE)
        assert scenario.fields.width == 1.0
        assert np.allclose(scenario.target.coefficients,
                           [0, 0, 0, 0, 0, 0, 1])
        assert scenario.propagation.t_start == -4.0
        assert scenario.propagation.t_end == 5.0
        assert scenario.bounds.max_p_x == 0.003
        assert scenario.bounds.max_p_y == 0.0005

    def test_fig3_overrides_applied(self):
        scenario = builtin_scenario("fig3")
        expected = [row[:] for row in STOKES_TABLE]
        for k, j, v in FIG3_EDITS:
            expected[k - 1][j - 1] = v
        assert np.allclose(scenario.fields.peak_rabi_stokes, expected)
        assert np.allclose(scenario.fields.peak_rabi_pump, PUMP_TABLE)

    def test_fig4_pruning(self):
        scenario = builtin_scenario("fig4")
        stokes = scenario.fields.peak_rabi_stokes
        assert stokes[0, 6] == 0 and stokes[1, 6] == 0
        pump = scenario.fields.peak_rabi_pump
        assert pump[0] == 0 and pump[1] == 0
        assert np.allclose(pump[2:], PUMP_TABLE[2:])

    def test_fig5_columns_zeroed(self):
        scenario = builtin_scenario("fig5")
        stokes = scenario.fields.peak_rabi_stokes
        assert np.all(stokes[:, 0] == 0)
        assert np.all(stokes[:, 1] == 0)
        assert np.allclose(stokes[:, 2:],
                           np.array(STOKES_TABLE, dtype=float)[:, 2:])

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError, match="unknown built-in"):
            builtin_scenario("fig9")


class TestLoadScenario:
    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(small_scenario_dict()))
        scenario = load_scenario(path)
        assert scenario.label == "mini"
        assert scenario.fields.peak_rabi_pump[0] == 60.0
        assert scenario.propagation.output_stride == 0.05

    def test_builtin_by_name(self):
        assert load_scenario("fig2").label == "fig2"

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="no scenario"):
            load_scenario("nonexistent.json")

    def test_schema_violation_names_field(self, tmp_path):
        raw = small_scenario_dict()
        raw["system"]["n_intermediate"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match="system/n_intermediate"):
            load_scenario(path)

    def test_schema_is_valid(self):
        jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)

    @pytest.mark.parametrize("edit", [
        lambda raw: raw["system"].update(n_intermediate=0),
        lambda raw: raw.update(extra=1),
        lambda raw: raw["fields"].update(peak_rabi_pump=[[1.0, 2.0, 3.0]]),
        lambda raw: raw.pop("target"),
    ], ids=["minimum", "extra-key", "pair-length", "required"])
    def test_schema_error_text(self, edit):
        # the message is the one jsonschema.validate would raise
        raw = small_scenario_dict()
        edit(raw)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(raw, SCENARIO_SCHEMA)
        where = "/".join(map(str, expected.value.absolute_path)) or "(root)"
        with pytest.raises(ScenarioError) as got:
            load_scenario_from(raw)
        assert str(got.value) == (
            f"scenario field {where}: {expected.value.message}")

    @pytest.mark.parametrize("edit", [
        lambda raw, bad: raw["system"].update(mu_pump=[bad]),
        lambda raw, bad: raw["system"].update(mu_stokes=[[[1.0, bad]]]),
        lambda raw, bad: raw["fields"].update(peak_rabi_pump=[bad]),
        lambda raw, bad: raw["fields"].update(peak_rabi_stokes=[[bad]]),
        lambda raw, bad: raw["fields"].update(width=bad),
        lambda raw, bad: raw.update(target=[bad]),
        lambda raw, bad: raw["propagation"].update(rel_tol=bad),
    ], ids=["mu_pump", "mu_stokes", "pump", "stokes", "width", "target",
            "rel_tol"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, tmp_path, edit, bad):
        raw = small_scenario_dict()
        edit(raw, bad)
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(raw))  # writes NaN / Infinity literals
        with pytest.raises(ScenarioError):
            load_scenario(path)

    @pytest.mark.parametrize("place", [
        lambda raw, value: raw["system"].update(mu_pump=[value]),
        lambda raw, value: raw["system"].update(mu_stokes=[[value]]),
        lambda raw, value: raw.update(target=[value]),
        lambda raw, value: raw["fields"].update(peak_rabi_stokes=[[value]]),
        lambda raw, value: raw.update(overrides=[
            {"pulse": "pump", "k": 1, "value": value}]),
        lambda raw, value: raw.update(design={"stokes_amplitudes": [1.0],
                                              "eta": value}),
    ], ids=["mu_pump", "mu_stokes", "target", "stokes", "override", "eta"])
    def test_complex_schema_matches_one_of(self, place):
        reference = jsonschema.Draft202012Validator(ONE_OF_COMPLEX)
        schema = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
        for value in COMPLEX_CANDIDATES:
            raw = small_scenario_dict()
            place(raw, value)
            assert schema.is_valid(raw) == reference.is_valid(value), value

    def test_malformed_complex_message(self):
        raw = small_scenario_dict()
        raw["system"]["mu_pump"] = ["x"]
        with pytest.raises(ScenarioError) as got:
            load_scenario_from(raw)
        assert str(got.value) == (
            "scenario field system/mu_pump/0: "
            "'x' is not of type 'number', 'array'")

    def test_complex_entries(self, tmp_path):
        raw = small_scenario_dict()
        raw["fields"]["peak_rabi_pump"] = [[60.0, 30.0]]
        path = tmp_path / "cplx.json"
        path.write_text(json.dumps(raw))
        scenario = load_scenario(path)
        assert scenario.fields.peak_rabi_pump[0] == 60.0 + 30.0j

    def test_override_applied(self, tmp_path):
        raw = small_scenario_dict()
        raw["overrides"] = [{"pulse": "pump", "k": 1, "value": 10.0}]
        path = tmp_path / "ov.json"
        path.write_text(json.dumps(raw))
        assert load_scenario(path).fields.peak_rabi_pump[0] == 10.0

    def test_unknown_override_index(self, tmp_path):
        raw = small_scenario_dict()
        raw["overrides"] = [{"pulse": "stokes", "k": 1, "j": 5, "value": 0}]
        path = tmp_path / "ov2.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match="unknown override index"):
            load_scenario(path)

    @pytest.mark.parametrize("fields,override", [
        # a 1-channel block in a 2-channel system, overridden on channel 2
        ({"peak_rabi_pump": [60.0], "peak_rabi_stokes": [[60.0, 0.0]]},
         {"pulse": "pump", "k": 2, "value": 1.0}),
        ({"peak_rabi_pump": [60.0, 30.0],
          "peak_rabi_stokes": [[60.0, 0.0], [0.0, 30.0]]},
         {"pulse": "stokes", "k": 1, "j": 2, "value": math.nan}),
    ], ids=["mismatched-block", "nan-value"])
    def test_override_errors(self, tmp_path, fields, override):
        raw = small_scenario_dict(fields=fields, overrides=[override])
        raw["system"] = {"n_intermediate": 2, "n_degenerate": 2,
                         "mu_pump": [1.0, 1.0],
                         "mu_stokes": [[1.0, 0.0], [0.0, 1.0]]}
        raw["target"] = [0.0, 1.0]
        path = tmp_path / "ov3.json"
        path.write_text(json.dumps(raw))  # writes a NaN literal
        with pytest.raises(ScenarioError):
            load_scenario(path)

    @pytest.mark.parametrize("override, message", [
        ({"pulse": "pump", "k": 1, "j": 1, "value": 0},
         "pump overrides take no 'j' index"),
        ({"pulse": "pump", "k": 3, "value": 0},
         "unknown override index: pump k=3"),
        ({"pulse": "stokes", "k": 1, "value": 0},
         "stokes overrides need a 'j' index"),
    ], ids=["pump-with-j", "pump-index", "stokes-without-j"])
    def test_override_error_text(self, override, message):
        raw = small_scenario_dict(overrides=[override])
        raw["system"] = {"n_intermediate": 2, "n_degenerate": 2,
                         "mu_pump": [1.0, 1.0],
                         "mu_stokes": [[1.0, 0.0], [0.0, 1.0]]}
        raw["target"] = [0.0, 1.0]
        raw["fields"] = {"peak_rabi_pump": [60.0, 30.0],
                         "peak_rabi_stokes": [[60.0, 0.0], [0.0, 30.0]]}
        with pytest.raises(ScenarioError) as got:
            load_scenario_from(raw)
        assert str(got.value) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.update(overrides=[
            {"pulse": "pump", "k": 1, "value": 0}]),
         "overrides require direct 'fields'"),
        (lambda raw: raw["design"].update(stokes_amplitudes=[120.0]),
         "design needs one Stokes amplitude per channel"),
        (lambda raw: raw["design"].update(stokes_phases=[0.0]),
         "design needs one Stokes phase per channel"),
    ], ids=["overrides", "amplitudes", "phases"])
    def test_design_request_error_text(self, edit, message):
        raw = design_scenario_dict()
        edit(raw)
        with pytest.raises(ScenarioError) as got:
            load_scenario_from(raw)
        assert str(got.value) == message

    @pytest.mark.parametrize("key, value", [
        ("stokes_amplitudes", [math.nan, 80.0]),
        ("stokes_amplitudes", [120.0, math.inf]),
        ("stokes_phases", [math.nan, 0.0]),
        ("eta", math.nan), ("eta", math.inf), ("eta", [1.0, -math.inf]),
        ("width", math.nan), ("width", math.inf),
    ], ids=["amplitude-nan", "amplitude-inf", "phase-nan", "eta-nan",
            "eta-inf", "eta-pair-inf", "width-nan", "width-inf"])
    def test_non_finite_design_rejected(self, tmp_path, key, value):
        # json writes and reads NaN and Infinity, and the schema lets them in
        path = tmp_path / "design.json"
        path.write_text(json.dumps(design_scenario_dict(**{key: value})))
        with pytest.raises(ScenarioError, match=f"design {key} must be finite"):
            load_scenario(path)

    def test_design_scenario_with_phases(self):
        scenario = load_scenario_from(design_scenario_dict(
            stokes_phases=[0.5, -1.0], eta=[2.0, 1.0], width=1.5))
        assert scenario.design.stokes_phases == (0.5, -1.0)
        fields = scenario.resolve_fields()
        per_pulse = 0.5 * np.array([120.0, 80.0]) * np.exp(1j * np.array(
            [0.5, -1.0]))
        assert np.allclose(fields.peak_rabi_stokes,
                           per_pulse[:, None] * scenario.system.mu_stokes)
        assert np.allclose(fields.peak_rabi_pump, np.conj(
            (2 + 1j) * fields.peak_rabi_stokes[:, 1]))
        assert fields.width == 1.5

    def test_design_config_hash_pinned(self):
        scenario = load_scenario_from(design_scenario_dict(
            stokes_phases=[0.5, -1.0], eta=[2.0, 1.0], width=1.5))
        assert scenario_to_dict(scenario)["design"] == {
            "eta": [2.0, 1.0], "width": 1.5,
            "stokes_amplitudes": [120.0, 80.0], "stokes_phases": [0.5, -1.0]}
        assert config_hash(scenario) == (
            "b455584b7b13c7bb9ffbe0540177b28cb45f49b0ab9129ab625eb67df64f9d43")

    def test_overflowing_design_is_bad_input(self):
        # finite at load, but the designed pump amplitudes overflow
        scenario = load_scenario_from(design_scenario_dict(eta=1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError) as got:
                scenario.resolve_fields()
        assert str(got.value) == "design: peak_rabi_pump must be finite"

    def test_infeasible_design_stays_design_error(self):
        raw = design_scenario_dict()
        raw["system"]["n_degenerate"] = 3
        raw["system"]["mu_stokes"] = [[1.0, 0.3, 0.2], [0.4, 1.0, 0.5]]
        raw["target"] = [0.0, 0.0, 1.0]
        scenario = load_scenario_from(raw)
        with pytest.raises(DesignError) as got:
            scenario.resolve_fields()
        assert not isinstance(got.value, ScenarioError)

    def test_not_valid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"label": ')
        with pytest.raises(ScenarioError, match=f"{path}: not valid JSON: "):
            load_scenario(path)

    def test_fields_and_design_exclusive(self, tmp_path):
        raw = small_scenario_dict()
        raw["design"] = {"stokes_amplitudes": [2.0]}
        path = tmp_path / "both.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match="exactly one"):
            load_scenario(path)

    def test_design_scenario(self, tmp_path):
        raw = small_scenario_dict()
        del raw["fields"]
        raw["design"] = {"stokes_amplitudes": [120.0], "eta": 1.0}
        path = tmp_path / "design.json"
        path.write_text(json.dumps(raw))
        scenario = load_scenario(path)
        fields = scenario.resolve_fields()
        assert fields.peak_rabi_pump[0] == pytest.approx(60.0)
        assert fields.peak_rabi_stokes[0, 0] == pytest.approx(60.0)

    def test_target_length_checked(self, tmp_path):
        raw = small_scenario_dict()
        raw["target"] = [1.0, 0.0]
        path = tmp_path / "tl.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match="target"):
            load_scenario(path)

    @pytest.mark.parametrize("key, value", [
        ("max_p_x", math.nan), ("max_p_y", math.nan),
        ("min_final_p_f", math.nan), ("max_p_x", math.inf),
        ("max_p_y", math.inf)])
    def test_non_finite_bound_rejected(self, tmp_path, key, value):
        # json writes and reads NaN and Infinity, and the schema's
        # "minimum": 0 lets NaN through
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(small_scenario_dict(bounds={key: value})))
        with pytest.raises(ScenarioError, match=f"{key} must be finite"):
            load_scenario(path)

    def test_deeply_nested_json_is_a_scenario_error(self, tmp_path):
        # the decoder recurses once per level and raises RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(ScenarioError) as got:
            load_scenario(path)
        assert str(got.value) == f"{path}: not valid JSON: nested too deeply"


# Values swapped into the mutation corpus: every JSON type, and numbers on
# and around the schema's limits.
SWAP_VALUES = ["x", "", True, False, None, [], [1.0, "a"], {}, {"re": 1.0},
               math.nan, math.inf, 0, -1, 1.0, 1.5]

# Every keyword the package's validator implements, as jsonschema names the
# error it reports.
VALIDATED_KEYWORDS = {"type", "required", "additionalProperties", "minItems",
                      "maxItems", "minimum", "maximum", "exclusiveMinimum",
                      "enum", "minLength"}


def _json_nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_nodes(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _json_nodes(value, path + (index,))


def _mutate(doc, rng):
    """Apply one random mutation to ``doc`` in place."""
    nodes = list(_json_nodes(doc))
    objects = [value for _, value in nodes if isinstance(value, dict)]
    arrays = [value for _, value in nodes if isinstance(value, list)]
    kind = rng.choice(["drop", "add", "swap", "swap", "swap", "resize"])
    if kind == "drop":
        block = rng.choice(objects)
        if block:
            del block[rng.choice(sorted(block))]
    elif kind == "add":
        rng.choice(objects)[rng.choice(["extra", "Label", "zz"])] = (
            copy.deepcopy(rng.choice(SWAP_VALUES)))
    elif kind == "swap":
        # half the swaps hit a named field, which the long arrays would
        # otherwise crowd out
        named = [node for node in nodes[1:] if isinstance(node[0][-1], str)]
        path, _ = rng.choice(named if rng.random() < 0.5 else nodes[1:])
        parent = doc
        for part in path[:-1]:
            parent = parent[part]
        parent[path[-1]] = copy.deepcopy(rng.choice(SWAP_VALUES))
    elif arrays:
        array = rng.choice(arrays)
        shape = rng.random()
        if shape < 0.3:
            array.clear()
        elif shape < 0.6 and array:
            array.pop()
        else:
            array.append(copy.deepcopy(array[-1] if array
                                       else rng.choice(SWAP_VALUES)))


def mutation_corpus(count: int, seed: int) -> list:
    """Seeded scenario documents, each with one to three mutations."""
    bases = [
        scenario_to_dict(builtin_scenario("fig2")),
        design_scenario_dict(eta=[1.0, 0.5], stokes_phases=[0.0, 1.0],
                             width=2.0),
        small_scenario_dict(
            overrides=[{"pulse": "stokes", "k": 1, "j": 1,
                        "value": [1.0, 0.5]}],
            bounds={"max_p_x": 0.1, "max_p_y": None, "min_final_p_f": 0.99}),
    ]
    rng = random.Random(seed)
    corpus = []
    for index in range(count):
        doc = copy.deepcopy(bases[index % len(bases)])
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        corpus.append(doc)
    return corpus


class TestSchemaOracle:
    """The package's validator against jsonschema, the reference reading."""

    def test_mutation_corpus_matches_jsonschema(self):
        validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
        valid, several, keywords = 0, 0, set()
        for doc in mutation_corpus(2400, seed=25):
            errors = list(validator.iter_errors(doc))
            assert validator.is_valid(doc) == (not errors)
            if not errors:
                valid += 1
                _validate(doc)
                continue
            several += len(errors) > 1
            best = jsonschema.exceptions.best_match(errors)
            keywords.add(best.validator)
            where = "/".join(map(str, best.absolute_path)) or "(root)"
            with pytest.raises(ScenarioError) as got:
                _validate(doc)
            assert str(got.value) == f"scenario field {where}: {best.message}"
        # the corpus reaches valid documents, documents with several errors,
        # and a best error from every keyword
        assert valid > 100 and several > 100
        assert keywords == VALIDATED_KEYWORDS

    @pytest.mark.parametrize("edit", [
        lambda schema: schema["properties"]["label"].update(pattern="^[a-z]+$"),
        lambda schema: schema["properties"]["system"].update(
            additionalProperties={"type": "number"}),
        lambda schema: schema["properties"]["target"]["items"].update(
            multipleOf=0.5),
    ], ids=["pattern", "additional-schema", "nested"])
    def test_unimplemented_keyword_stops_validation(self, edit):
        schema = copy.deepcopy(SCENARIO_SCHEMA)
        edit(schema)
        with pytest.raises(NotImplementedError):
            _validate(small_scenario_dict(), schema)


# The canonical form of the built-ins, pinned: these hashes depend on the
# scenario JSON alone, not on the integrator.
BUILTIN_HASHES = {
    "fig2": "577186c20e5cb8e726ba856647ed717ebe142a2e958bfd09d97e9f562cefc6f5",
    "fig3": "4ca513b9efd69ba84e5013be301e76d0bf887bc5c33ce6e5bfd303a8d50ee4aa",
    "fig4": "270b1e9cfc6710ae8ba518a8ce2522775df7e7f5a38ac029eabdd46cfe985b5a",
    "fig5": "6eeb4feb7dfec72696bcc2086d2d4ac638babf3102e862bb87161490b8826b65",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_HASHES))
def test_builtin_config_hash_pinned(name):
    assert config_hash(builtin_scenario(name)) == BUILTIN_HASHES[name]


# A seeded complex design with N = 5, M = 3 and a complex target, saved in
# canonical form.  fig2-fig5 have real couplings, so a conjugation slip on a
# complex path cannot move their bytes; this file's run pins them.
COMPLEX_SCENARIO = Path(__file__).parent / "data" / "complex-n5-m3.json"
COMPLEX_SUMMARY_SHA256 = ("e6bfa9df2f9eb4762b025efbd5f90f510d6ddb6947f9c58b34d02"
                          "72c7ffd4969")
COMPLEX_CSV_SHA256 = ("7b580c3d75ba561116d191ba577f9f32e82413d3cb3d67267e1b27b84"
                      "bbcc80f")


def test_complex_scenario_bytes_pinned(tmp_path):
    scenario = load_scenario(COMPLEX_SCENARIO)
    assert scenario.system.n_degenerate < scenario.system.n_intermediate
    assert np.iscomplex(scenario.fields.peak_rabi_stokes).all()
    assert np.iscomplex(scenario.target.coefficients).all()
    record, _ = run(scenario, out_dir=tmp_path)
    assert record.bounds_ok
    summary = json.dumps(record.summary_dict(), sort_keys=True).encode()
    assert hashlib.sha256(summary).hexdigest() == COMPLEX_SUMMARY_SHA256
    csv = (tmp_path / "complex-n5-m3.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == COMPLEX_CSV_SHA256


class TestCanonicalForm:
    """``scenario_to_dict`` writes a document ``load_scenario`` reads back."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_HASHES) + ["design"])
    def test_saved_canonical_form_loads_with_same_hash(self, tmp_path, name):
        if name == "design":
            raw = design_scenario_dict()
            assert "bounds" not in raw and "stokes_phases" not in raw["design"]
            scenario = load_scenario_from(raw)
        else:
            scenario = builtin_scenario(name)
        path = tmp_path / "saved.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        assert config_hash(load_scenario(path)) == config_hash(scenario)

    def test_design_request_converts_its_types(self):
        request = DesignRequest((120, 80), eta=2)
        assert request.stokes_amplitudes == (120.0, 80.0)
        assert all(type(a) is float for a in request.stokes_amplitudes)
        assert request.eta == 2 + 0j and type(request.eta) is complex
        assert type(request.width) is float
        loaded = load_scenario_from(design_scenario_dict(eta=2))
        in_code = dataclasses.replace(loaded, design=request)
        assert config_hash(in_code) == config_hash(loaded)

    @pytest.mark.parametrize("request_, message", [
        (DesignRequest((120.0,)),
         "design needs one Stokes amplitude per channel"),
        (DesignRequest((120.0, 80.0), stokes_phases=(0.0,)),
         "design needs one Stokes phase per channel"),
    ], ids=["amplitudes", "phases"])
    def test_scenario_in_code_checks_channel_count(self, request_, message):
        loaded = load_scenario_from(design_scenario_dict())
        with pytest.raises(ScenarioError) as got:
            dataclasses.replace(loaded, design=request_)
        assert str(got.value) == message

    def test_scenario_in_code_needs_a_label(self):
        # the label names the output files: an empty one would write the
        # hidden files .csv and .json
        with pytest.raises(ScenarioError) as got:
            dataclasses.replace(builtin_scenario("fig2"), label="")
        assert str(got.value) == "scenario label must not be empty"


class TestIntegersHashLikeFloats:
    """A JSON integer and the same number written as a float are one setting."""

    @pytest.mark.parametrize("block, key, number", [
        ("fields", "width", 1),
        ("propagation", "t_start", -4),
        ("propagation", "t_end", 5),
        ("propagation", "rel_tol", 1),
        ("propagation", "abs_tol", 1),
        ("propagation", "max_step", 1),
        ("propagation", "stride", 1),
        ("bounds", "max_p_x", 1),
        ("bounds", "max_p_y", 1),
        ("bounds", "min_final_p_f", 0),
    ])
    def test_same_hash(self, block, key, number):
        scenarios = []
        for value in (number, float(number)):
            raw = small_scenario_dict()
            raw.setdefault(block, {})[key] = value
            scenarios.append(load_scenario_from(raw))
        as_int, as_float = scenarios
        assert config_hash(as_int) == config_hash(as_float)
        assert scenario_to_dict(as_int) == scenario_to_dict(as_float)

    def test_stored_as_floats_when_built_in_code(self):
        from stirapkit import FieldSet, PropagationConfig
        assert type(FieldSet([60], [[60]], 2).width) is float
        config = PropagationConfig(t_start=-4, t_end=5, rel_tol=1, abs_tol=1,
                                   max_step=1, output_stride=1)
        assert all(type(getattr(config, f.name)) is float
                   for f in dataclasses.fields(config))
        assert PropagationConfig().max_step is None
        bounds = Bounds(max_p_x=1, max_p_y=0, min_final_p_f=1)
        assert all(type(getattr(bounds, f.name)) is float
                   for f in dataclasses.fields(bounds))
        assert Bounds(max_p_x=1).max_p_y is None

    @staticmethod
    def fig2_with_float_integers(edit):
        """fig2's canonical form with some integer fields written as floats.

        The override entries restate fig2's own values, so the scenario is
        fig2's whatever the edit.
        """
        raw = scenario_to_dict(builtin_scenario("fig2"))
        if edit in ("counts", "all"):
            raw["system"]["n_intermediate"] = 7.0
            raw["system"]["n_degenerate"] = 7.0
        overrides = []
        if edit in ("pump-k", "all"):
            overrides.append({"pulse": "pump", "k": 1.0, "value": 60.0})
        if edit in ("stokes-k-j", "all"):
            overrides.append({"pulse": "stokes", "k": 1.0, "j": 2.0,
                              "value": 15.0})
        if overrides:
            raw["overrides"] = overrides
        return raw

    @pytest.mark.parametrize("edit", ["counts", "pump-k", "stokes-k-j"])
    def test_float_counts_and_indices_load_as_fig2(self, edit):
        scenario = load_scenario_from(self.fig2_with_float_integers(edit))
        assert type(scenario.system.n_intermediate) is int
        assert type(scenario.system.n_degenerate) is int
        assert config_hash(scenario) == BUILTIN_HASHES["fig2"]

    def test_float_counts_and_indices_run_as_fig2(self, tmp_path):
        from test_imports import FIG2_CSV_SHA256
        raw = self.fig2_with_float_integers("all")
        record, _ = run(load_scenario_from(raw), out_dir=tmp_path)
        assert record.config_hash == BUILTIN_HASHES["fig2"]
        csv = (tmp_path / "fig2.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == FIG2_CSV_SHA256

    @pytest.mark.parametrize("counts", [(7.5, 7), (7, 7.5), ("7", 7)])
    def test_non_integral_counts_rejected(self, counts):
        from stirapkit import SystemSpec
        n, m = counts
        with pytest.raises(ValueError, match="must be a whole number"):
            SystemSpec(n, m, np.ones(7), np.ones((7, 7)))

    @pytest.mark.parametrize("block, key", [
        ("fields", "width"), ("propagation", "t_start"),
        ("propagation", "max_step"), ("bounds", "max_p_x")])
    def test_integer_too_large_for_a_float_is_bad_input(self, block, key):
        raw = small_scenario_dict()
        raw.setdefault(block, {})[key] = 10 ** 400
        with pytest.raises(ScenarioError, match="finite"):
            load_scenario_from(raw)


class TestBuiltinNameFirst:
    """A file named like a built-in does not shadow it."""

    @pytest.fixture
    def decoy_dir(self, tmp_path, monkeypatch):
        (tmp_path / "fig2").write_text(
            json.dumps(small_scenario_dict(label="not-fig2")))
        monkeypatch.chdir(tmp_path)

    def test_builtin_name_means_builtin(self, decoy_dir):
        assert load_scenario("fig2").label == "fig2"

    def test_file_reached_by_path(self, decoy_dir):
        assert load_scenario("./fig2").label == "not-fig2"


class TestRun:
    def test_run_writes_outputs(self, tmp_path):
        scenario = load_scenario_from(small_scenario_dict())
        record, traj = run(scenario, out_dir=tmp_path)
        csv_path = tmp_path / "mini.csv"
        json_path = tmp_path / "mini.json"
        assert csv_path.exists() and json_path.exists()

        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["t_over_T", "p0", "p_i1", "p_f1",
                          "P_x", "P_y", "P_f", "norm_err"]
        assert len(lines) == 1 + len(traj.times)
        for line in lines[1:]:
            values = [float(x) for x in line.split(",")]
            assert abs(sum(values[1:4]) - 1.0) < 1e-8

        stored = json.loads(json_path.read_text())
        assert stored["summary"]["final_p_f"] == record.final_p_f
        assert stored["config_hash"] == record.config_hash

    def test_csv_bytes_match_oracle_fig2(self, tmp_path):
        _, traj = run(builtin_scenario("fig2"), out_dir=tmp_path)
        assert (tmp_path / "fig2.csv").read_bytes() == trajectory_csv_oracle(traj)

    def test_csv_bytes_match_oracle_random(self, tmp_path):
        # magnitudes from subnormal to large, exact zeros and integers
        rng = np.random.default_rng(41)
        samples, n, m = 37, 3, 2
        pops = rng.random((samples, 1 + n + m)) * 10.0 ** rng.integers(
            -320, 3, (samples, 1 + n + m))
        pops[::5, 2] = 0.0
        pops[1::7, 1] = 1.0
        aggregates = [rng.random(samples) * 10.0 ** rng.integers(-17, 1, samples)
                      for _ in range(4)]
        traj = Trajectory(
            times=np.linspace(-7.3, 9.1, samples), states=np.sqrt(pops),
            populations=pops, p_x=aggregates[0], p_y=aggregates[1],
            p_f=aggregates[2], norm_error=aggregates[3], n_intermediate=n,
            n_degenerate=m, width=1.7, target=TargetSpec.basis(m))
        path = tmp_path / "random.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == trajectory_csv_oracle(traj)

    def test_summary_values_in_range(self):
        record, _ = run(load_scenario_from(small_scenario_dict()))
        for value in (record.max_p_x, record.max_p_y, record.final_p_f):
            assert 0.0 <= value <= 1.0

    def test_deterministic_summaries(self):
        scenario = load_scenario_from(small_scenario_dict())
        first, _ = run(scenario)
        second, _ = run(scenario)
        assert first.summary_dict() == second.summary_dict()

    def test_bound_violation_recorded(self):
        raw = small_scenario_dict(bounds={"max_p_x": 1e-12})
        record, _ = run(load_scenario_from(raw))
        assert not record.bounds_ok
        assert any("P_x" in v for v in record.violations)

    def test_nan_aggregates_violate_bounds(self):
        bounds = Bounds(max_p_x=0.1, max_p_y=0.1, min_final_p_f=0.9)
        traj = SimpleNamespace(max_p_x=math.nan, max_p_y=math.nan,
                               final_p_f=math.nan)
        assert len(_check_bounds(bounds, traj)) == 3

    def test_zero_fields_stay_put(self):
        raw = small_scenario_dict()
        raw["fields"]["peak_rabi_pump"] = [0.0]
        raw["fields"]["peak_rabi_stokes"] = [[0.0]]
        record, traj = run(load_scenario_from(raw))
        assert traj.final_p_f == 0.0
        assert np.allclose(traj.states[-1], traj.states[0])

    def test_config_hash_tracks_content(self):
        a = load_scenario_from(small_scenario_dict())
        raw = small_scenario_dict()
        raw["fields"]["peak_rabi_pump"] = [61.0]
        b = load_scenario_from(raw)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(
            load_scenario_from(small_scenario_dict()))
        # canonical dict survives a JSON round trip
        payload = scenario_to_dict(a)
        assert json.loads(json.dumps(payload)) == payload


class TestSweep:
    def test_eta_sweep_serial(self):
        scenario = load_scenario_from(small_scenario_dict())
        entries = sweep(scenario, "eta", [0.5, 1.0, 2.0], jobs=1)
        assert [e.value for e in entries] == [0.5, 1.0, 2.0]
        for entry in entries:
            assert entry.record is not None
            assert entry.record.design_verified
            assert entry.record.final_p_f > 0.99

    def test_width_sweep_improves_transfer(self):
        raw = small_scenario_dict()
        raw["fields"]["peak_rabi_pump"] = [20.0]
        raw["fields"]["peak_rabi_stokes"] = [[20.0]]
        scenario = load_scenario_from(raw)
        entries = sweep(scenario, "width", [1.0, 2.0, 4.0], jobs=1)
        infidelities = [1.0 - e.record.final_p_f for e in entries]
        assert infidelities[0] > infidelities[1] > infidelities[2]

    def test_phase_perturbation_axis(self):
        # needs two channels: with a single pump any phase is absorbed into
        # the global ratio and the condition still holds
        raw = small_scenario_dict()
        raw["system"] = {"n_intermediate": 2, "n_degenerate": 2,
                         "mu_pump": [1.0, 1.0],
                         "mu_stokes": [[60.0, 40.0], [30.0, 80.0]]}
        raw["target"] = [0.0, 1.0]
        raw["fields"] = {"peak_rabi_pump": [40.0, 80.0],
                         "peak_rabi_stokes": [[60.0, 40.0], [30.0, 80.0]],
                         "width": 1.0}
        scenario = load_scenario_from(raw)
        entries = sweep(scenario, "phase-perturbation", [np.pi], jobs=1)
        record = entries[0].record
        assert record is not None
        assert not record.design_verified  # relative sign flip breaks it
        baseline, _ = run(scenario)
        assert record.max_p_y > 10 * baseline.max_p_y

    def test_failure_recorded_not_raised(self):
        scenario = load_scenario_from(small_scenario_dict())
        entries = sweep(scenario, "eta", [0.0, 1.0], jobs=1)
        assert entries[0].record is None
        assert "eta" in entries[0].error
        assert entries[1].record is not None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_keeps_its_class(self, jobs):
        scenario = load_scenario_from(small_scenario_dict())
        entries = sweep(scenario, "eta", [0.0, 1.0], jobs=jobs)
        assert entries[0].error_type is DesignError
        assert entries[0].error.startswith("DesignError: ")
        assert entries[1].error_type is None

    def test_refused_output_file_is_recorded(self, tmp_path):
        scenario = load_scenario_from(small_scenario_dict())
        (tmp_path / "mini_amp_x2_.csv").mkdir()
        entries = sweep(scenario, "amplitude-scale", [1.0, 2.0, 3.0], jobs=1,
                        out_dir=tmp_path)
        assert entries[1].error_type is IsADirectoryError
        assert [e.record is not None for e in entries] == [True, False, True]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[2].split(",")[-1].startswith("IsADirectoryError: ")

    def test_sweep_csv_lists_every_status(self, tmp_path):
        raw = small_scenario_dict(bounds={"min_final_p_f": 0.9})
        scenario = load_scenario_from(raw)
        out = tmp_path / "new" / "dir"
        entries = sweep(scenario, "width", [-1.0, 1.0, 0.02], jobs=1,
                        out_dir=out)
        statuses = ["ScenarioError: width factors must be positive", "ok",
                    "bound-violation"]
        assert [e.status for e in entries] == statuses
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,max_p_x,max_p_y,final_p_f,one_minus_p_f,status"
        assert lines[1] == "-1.0,,,,," + statuses[0]
        assert [line.split(",")[-1] for line in lines[2:]] == statuses[1:]

    def test_parallel_matches_serial(self):
        scenario = load_scenario_from(small_scenario_dict())
        serial = sweep(scenario, "amplitude-scale", [1.0, 2.0], jobs=1)
        parallel = sweep(scenario, "amplitude-scale", [1.0, 2.0], jobs=2)
        for a, b in zip(serial, parallel):
            assert a.record.summary_dict() == b.record.summary_dict()

    @pytest.mark.parametrize("jobs", [None, 64])
    def test_pool_no_larger_than_value_count(self, monkeypatch, jobs):
        # a fork-based pool starts all its workers on the first submit; the
        # stand-in records its size and runs the tasks in this process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setattr(stirapkit.scenarios, "ProcessPoolExecutor",
                            InProcessPool)
        scenario = load_scenario_from(small_scenario_dict())
        entries = sweep(scenario, "eta", [0.5, 2.0], jobs=jobs)
        assert sizes == [2]
        assert [e.value for e in entries] == [0.5, 2.0]
        assert all(e.record is not None for e in entries)

    @pytest.mark.parametrize("axis", ["amplitude-scale", "eta"])
    def test_overflowing_value_is_bad_input(self, axis):
        scenario = load_scenario_from(small_scenario_dict())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = sweep(scenario, axis, [1e307], jobs=1)
        assert entries[0].record is None
        assert entries[0].status == (f"ScenarioError: {axis} 1e+307: "
                                     "peak_rabi_pump must be finite")

    def test_overflowing_design_entry_is_bad_input(self):
        scenario = load_scenario_from(design_scenario_dict(eta=1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = sweep(scenario, "amplitude-scale", [1.0], jobs=1)
        assert entries[0].record is None
        assert entries[0].status == ("ScenarioError: design: "
                                     "peak_rabi_pump must be finite")

    @pytest.mark.parametrize("axis, values", [
        ("amplitude-scale", [1.0000001, 1.0000002]),
        ("width", [2.0, 3.0, 2.0]),
        ("phase-perturbation", [0.1, 0.10000001]),
        ("eta", [1.0, 1.0]),
    ])
    def test_coinciding_labels_rejected(self, monkeypatch, axis, values):
        # runs that share a label write the same files; no run may start
        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(stirapkit.scenarios, "_sweep_worker", no_run)
        scenario = load_scenario_from(small_scenario_dict())
        with pytest.raises(ScenarioError, match=f"sweep values {values[0]!r} "
                                                f"and {values[-1]!r}"):
            sweep(scenario, axis, values, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, monkeypatch, jobs):
        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(stirapkit.scenarios, "_sweep_worker", no_run)
        scenario = load_scenario_from(small_scenario_dict())
        with pytest.raises(ScenarioError,
                           match=f"at least one job, got {jobs}"):
            sweep(scenario, "eta", [0.5, 2.0], jobs=jobs)

    def test_axis_validation(self):
        scenario = load_scenario_from(small_scenario_dict())
        with pytest.raises(ScenarioError, match="axis"):
            sweep(scenario, "frequency", [1.0])
        with pytest.raises(ScenarioError, match="finite"):
            sweep(scenario, "width", [np.nan])
        with pytest.raises(ScenarioError, match="at least one"):
            sweep(scenario, "width", [])


def load_scenario_from(raw: dict):
    from stirapkit.scenarios import _scenario_from_dict
    return _scenario_from_dict(raw)
