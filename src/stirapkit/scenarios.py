"""Scenario files, reproduction runs and parameter sweeps.

A scenario bundles a system, a target, either a ready field set or a design
request, propagation settings and optional population bounds.  Scenarios are
JSON documents validated against :data:`SCENARIO_SCHEMA`, the one statement
of the format; complex numbers are written either as plain numbers or as
``[re, im]`` pairs.  The package walks the schema itself (jsonschema is a
test-only dependency) and reports the error jsonschema's ``best_match``
would, in jsonschema's words.  The canonical form written by
:func:`scenario_to_dict` is itself a scenario document: it spells every
optional setting out, ``null`` where none is set.  Four built-in scenarios
(``fig2`` .. ``fig5``) encode the reference parameter tables of the
seven-intermediate, seven-degenerate demonstration system and its edits.

Every run produces a :class:`RunRecord` whose summary is a pure function of
the resolved scenario (timestamps live outside the summary), plus a CSV time
series with one population column per state.
"""

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .design import (DesignError, TargetSpec, design_fields, matched_pump_rabi,
                     verify_design)
from .model import FieldSet, SystemSpec, as_float, ground_state
from .propagation import PropagationConfig, Trajectory, propagate

__all__ = [
    "ScenarioError",
    "SCENARIO_SCHEMA",
    "SWEEP_AXES",
    "DesignRequest",
    "Bounds",
    "Scenario",
    "RunRecord",
    "SweepEntry",
    "builtin_scenario",
    "builtin_names",
    "load_scenario",
    "scenario_to_dict",
    "config_hash",
    "run",
    "sweep",
    "write_trajectory_csv",
]


class ScenarioError(ValueError):
    """A scenario file is malformed or references unknown entities."""


# a number, or an [re, im] pair: the array keywords ignore numbers, and a
# type union, unlike "oneOf", builds no error for the branch that fails
_COMPLEX = {"type": ["number", "array"], "items": {"type": "number"},
            "minItems": 2, "maxItems": 2}
_COMPLEX_VECTOR = {"type": "array", "items": _COMPLEX, "minItems": 1}
_COMPLEX_MATRIX = {"type": "array", "items": _COMPLEX_VECTOR, "minItems": 1}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "stirapkit scenario",
    "type": "object",
    "required": ["label", "system", "target"],
    "additionalProperties": False,
    "properties": {
        "label": {"type": "string", "minLength": 1},
        "system": {
            "type": "object",
            "required": ["n_intermediate", "n_degenerate", "mu_pump", "mu_stokes"],
            "additionalProperties": False,
            "properties": {
                "n_intermediate": {"type": "integer", "minimum": 1},
                "n_degenerate": {"type": "integer", "minimum": 1},
                "mu_pump": _COMPLEX_VECTOR,
                "mu_stokes": _COMPLEX_MATRIX,
            },
        },
        "target": _COMPLEX_VECTOR,
        "fields": {
            "type": "object",
            "required": ["peak_rabi_pump", "peak_rabi_stokes"],
            "additionalProperties": False,
            "properties": {
                "peak_rabi_pump": _COMPLEX_VECTOR,
                "peak_rabi_stokes": _COMPLEX_MATRIX,
                "width": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "design": {
            "type": "object",
            "required": ["stokes_amplitudes"],
            "additionalProperties": False,
            "properties": {
                "eta": _COMPLEX,
                "width": {"type": "number", "exclusiveMinimum": 0},
                "stokes_amplitudes": {"type": "array",
                                      "items": {"type": "number", "minimum": 0},
                                      "minItems": 1},
                "stokes_phases": {"type": ["array", "null"],
                                  "items": {"type": "number"}, "minItems": 1},
            },
        },
        "propagation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_start": {"type": "number"},
                "t_end": {"type": "number"},
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "abs_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_step": {"type": ["number", "null"],
                             "exclusiveMinimum": 0},
                "stride": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "overrides": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["pulse", "k", "value"],
                "additionalProperties": False,
                "properties": {
                    "pulse": {"enum": ["pump", "stokes"]},
                    "k": {"type": "integer", "minimum": 1},
                    "j": {"type": "integer", "minimum": 1},
                    "value": _COMPLEX,
                },
            },
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_p_x": {"type": ["number", "null"], "minimum": 0},
                "max_p_y": {"type": ["number", "null"], "minimum": 0},
                "min_final_p_f": {"type": ["number", "null"], "minimum": 0,
                                  "maximum": 1},
            },
        },
    },
}

# The keywords SCENARIO_SCHEMA uses, read as JSON Schema 2020-12 reads them.
# ``$schema`` and ``title`` are annotations; any other keyword stops
# validation, so a schema edit cannot skip a rule silently.
_ANNOTATIONS = ("$schema", "title")


def _is_number(value) -> bool:
    # JSON numbers load as int or float, and a bool is not one
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    # as jsonschema reads it: 1.0 is an integer, True is not
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


_TYPES = {
    "array": lambda value: isinstance(value, list),
    "integer": _is_integer,
    "null": lambda value: value is None,
    "number": _is_number,
    "object": lambda value: isinstance(value, dict),
    "string": lambda value: isinstance(value, str),
}


def _has_type(value, types) -> bool:
    if isinstance(types, str):
        return _TYPES[types](value)
    for name in types:
        if _TYPES[name](value):
            return True
    return False


def _too_short(value, least: int) -> str:
    return (f"{value!r} should be non-empty" if least == 1
            else f"{value!r} is too short")


def _walk(value, schema: dict, path: tuple, errors: list) -> None:
    """Append ``(path, message)`` for each error of ``value``.

    Visits the keywords in the schema's order and words each message as
    jsonschema's ``iter_errors`` does.  Limits compare as jsonschema compares
    them, so NaN passes them all.
    """
    for keyword, rule in schema.items():
        message = None
        if keyword == "type":
            if not _has_type(value, rule):
                names = [rule] if isinstance(rule, str) else rule
                message = (f"{value!r} is not of type "
                           f"{', '.join(map(repr, names))}")
        elif keyword == "items":
            if isinstance(value, list):
                for index, item in enumerate(value):
                    _walk(item, rule, path + (index,), errors)
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < rule:
                message = _too_short(value, rule)
        elif keyword == "maxItems":
            if isinstance(value, list) and len(value) > rule:
                message = f"{value!r} is too long"
        elif keyword == "properties":
            if isinstance(value, dict):
                for name, subschema in rule.items():
                    if name in value:
                        _walk(value[name], subschema, path + (name,), errors)
        elif keyword == "required":
            if isinstance(value, dict):
                errors.extend((path, f"{name!r} is a required property")
                              for name in rule if name not in value)
        elif keyword == "additionalProperties" and rule is False:
            if isinstance(value, dict):
                known = schema.get("properties", {})
                extras = sorted((name for name in value if name not in known),
                                key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    message = ("Additional properties are not allowed "
                               f"({', '.join(map(repr, extras))} {verb} "
                               "unexpected)")
        elif keyword == "minimum":
            if _is_number(value) and value < rule:
                message = f"{value!r} is less than the minimum of {rule!r}"
        elif keyword == "exclusiveMinimum":
            if _is_number(value) and value <= rule:
                message = (f"{value!r} is less than or equal to "
                           f"the minimum of {rule!r}")
        elif keyword == "maximum":
            if _is_number(value) and value > rule:
                message = f"{value!r} is greater than the maximum of {rule!r}"
        elif keyword == "minLength":
            if isinstance(value, str) and len(value) < rule:
                message = _too_short(value, rule)
        elif keyword == "enum":
            # the schema's enums list strings, which compare by ``==`` alone
            if value not in rule:
                message = f"{value!r} is not one of {rule!r}"
        elif keyword not in _ANNOTATIONS:
            raise NotImplementedError(
                f"scenario schema keyword {keyword!r}: {rule!r}")
        if message is not None:
            errors.append((path, message))


def _relevance(error) -> tuple:
    """jsonschema's ``relevance`` key, for the keywords above.

    The shallowest error wins, then the greatest path; ``max`` keeps the
    first of a tie.  The key's last part, which prefers an error whose value
    fails its schema's ``"type"``, never decides here: these keywords check
    each path against one subschema, so errors that tie on the path share it.
    """
    path = error[0]
    return -len(path), path


def _validate(raw, schema: dict = SCENARIO_SCHEMA) -> None:
    """Raise :class:`ScenarioError` unless ``raw`` is valid under ``schema``.

    Of several errors it reports the one jsonschema's ``best_match`` picks,
    as ``scenario field <path>: <jsonschema's message>``.
    """
    errors: list = []
    _walk(raw, schema, (), errors)
    if errors:
        path, message = max(errors, key=_relevance)
        where = "/".join(map(str, path)) or "(root)"
        raise ScenarioError(f"scenario field {where}: {message}")


SWEEP_AXES = ("width", "amplitude-scale", "phase-perturbation", "eta")


def _to_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(as_float(value))
    return complex(as_float(value[0]), as_float(value[1]))


def _from_complex(value: complex):
    value = complex(value)
    if value.imag == 0.0:
        return value.real
    return [value.real, value.imag]


def _complex_vector(values) -> np.ndarray:
    return np.array([_to_complex(v) for v in values], dtype=complex)


def _complex_matrix(values) -> np.ndarray:
    return np.array([[_to_complex(v) for v in row] for row in values],
                    dtype=complex)


@dataclass(frozen=True)
class DesignRequest:
    """Ask the run to build the fields instead of supplying them."""

    stokes_amplitudes: tuple[float, ...]
    stokes_phases: tuple[float, ...] | None = None
    eta: complex = 1.0 + 0.0j
    width: float = 1.0

    def __post_init__(self):
        # stored as floats and a complex, so a request built in code hashes
        # like the same request loaded from a file
        phases = self.stokes_phases
        converted = {
            "stokes_amplitudes": tuple(map(as_float, self.stokes_amplitudes)),
            "stokes_phases": None if phases is None else tuple(map(as_float, phases)),
            "eta": complex(self.eta),
            "width": as_float(self.width),
        }
        for name, value in converted.items():
            # the schema's limits let NaN and Infinity through, as for Bounds
            if value is not None and not np.isfinite(value).all():
                raise ScenarioError(f"design {name} must be finite, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Bounds:
    """Declared population bounds; a run violating them exits nonzero."""

    max_p_x: float | None = None
    max_p_y: float | None = None
    min_final_p_f: float | None = None

    def __post_init__(self):
        # NaN slips past the schema's limits (every comparison with it is
        # false), and an infinite limit bounds nothing
        for name in ("max_p_x", "max_p_y", "min_final_p_f"):
            value = getattr(self, name)
            if value is None:
                continue
            # stored as a float, so that a bound of 1 hashes like one of 1.0
            value = as_float(value)
            if not np.isfinite(value):
                raise ScenarioError(f"bound {name} must be finite, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Scenario:
    """Fully resolved experiment description (overrides already applied)."""

    label: str
    system: SystemSpec
    target: TargetSpec
    fields: FieldSet | None
    design: DesignRequest | None
    propagation: PropagationConfig
    bounds: Bounds

    def __post_init__(self):
        # the label names the output files: an empty one would hide them
        if not self.label:
            raise ScenarioError("scenario label must not be empty")
        if (self.fields is None) == (self.design is None):
            raise ScenarioError(
                "scenario needs exactly one of 'fields' or 'design'")
        if self.design is not None:
            n = self.system.n_intermediate
            if len(self.design.stokes_amplitudes) != n:
                raise ScenarioError(
                    "design needs one Stokes amplitude per channel")
            phases = self.design.stokes_phases
            if phases is not None and len(phases) != n:
                raise ScenarioError("design needs one Stokes phase per channel")

    def with_propagation(self, **settings) -> "Scenario":
        """Copy with some propagation settings replaced, each checked."""
        try:
            config = dataclasses.replace(self.propagation, **settings)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"propagation config: {exc}") from exc
        return dataclasses.replace(self, propagation=config)

    def resolve_fields(self) -> FieldSet:
        if self.fields is not None:
            return self.fields
        req = self.design
        # finite inputs can still overflow the designed amplitudes: bad
        # input, as in a sweep, while an infeasible design stays a DesignError
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return design_fields(self.system, self.target, req.eta,
                                     req.width, req.stokes_amplitudes,
                                     req.stokes_phases)
            except DesignError:
                raise
            except ValueError as exc:
                raise ScenarioError(f"design: {exc}") from exc


@dataclass(frozen=True)
class RunRecord:
    """Machine-checkable summary of one run."""

    label: str
    config_hash: str
    design_feasible: bool | None
    design_verified: bool
    design_residual: float
    design_eta: complex
    pruned_pumps: tuple[int, ...]
    max_p_x: float
    max_p_y: float
    final_p_f: float
    max_norm_error: float
    bounds_ok: bool
    violations: tuple[str, ...]
    started_at: str = ""
    finished_at: str = ""

    def summary_dict(self) -> dict:
        """Deterministic part of the record: identical runs give identical dicts."""
        return {
            "label": self.label,
            "config_hash": self.config_hash,
            "design": {
                "feasible": self.design_feasible,
                "verified": self.design_verified,
                "residual": self.design_residual,
                "eta": _from_complex(self.design_eta),
                "pruned_pumps": list(self.pruned_pumps),
            },
            "summary": {
                "max_p_x": self.max_p_x,
                "max_p_y": self.max_p_y,
                "final_p_f": self.final_p_f,
                "max_norm_error": self.max_norm_error,
            },
            "bounds_ok": self.bounds_ok,
            "violations": list(self.violations),
        }

    def to_dict(self) -> dict:
        out = self.summary_dict()
        out["meta"] = {"started_at": self.started_at,
                       "finished_at": self.finished_at}
        return out


@dataclass(frozen=True)
class SweepEntry:
    """One sweep value: its run record, or the error that stopped the run.

    ``error`` reads ``"<exception class>: <message>"`` and ``error_type`` is
    that class.
    """

    value: float
    record: RunRecord | None
    error: str | None = None
    error_type: type[Exception] | None = None

    @property
    def status(self) -> str:
        """``ok``, ``bound-violation`` or the error that stopped the run."""
        if self.record is None:
            return self.error or "failed"
        return "ok" if self.record.bounds_ok else "bound-violation"


# ---------------------------------------------------------------------------
# Built-in scenarios: the 7-intermediate / 7-degenerate reference system.
# Peak amplitudes in units of one over the pulse width; the pump row equals
# the last Stokes column (unit pump/Stokes ratio, all phases zero).

_FIG2_PUMP = (60, 90, 60, 120, 90, 99, 135)
_FIG2_STOKES = (
    (90, 15, 0, 150, 36, 18, 60),
    (90, 57, 24, 45, 69, 78, 90),
    (90, 75, 39, 36, 39, 78, 60),
    (60, 18, 24, 75, 66, 48, 120),
    (39, 27, 93, 15, 66, 78, 90),
    (93, 69, 18, 87, 72, 78, 99),
    (36, 54, 48, 57, 96, 78, 135),
)

_FIG3_EDITS = [
    (1, 4, 39), (2, 5, 39), (2, 6, 48), (3, 2, 45), (4, 3, 81),
    (5, 2, 57), (5, 6, 48), (6, 2, 39), (7, 2, 24),
]


def _fig_base(label: str, bounds: dict) -> dict:
    return {
        "label": label,
        "system": {
            "n_intermediate": 7,
            "n_degenerate": 7,
            "mu_pump": list(_FIG2_PUMP),
            "mu_stokes": [list(row) for row in _FIG2_STOKES],
        },
        "target": [0, 0, 0, 0, 0, 0, 1],
        "fields": {
            "peak_rabi_pump": list(_FIG2_PUMP),
            "peak_rabi_stokes": [list(row) for row in _FIG2_STOKES],
            "width": 1.0,
        },
        "propagation": {"t_start": -4.0, "t_end": 5.0,
                        "rel_tol": 1e-10, "abs_tol": 1e-10, "stride": 0.01},
        "bounds": bounds,
    }


def _builtin_dicts() -> dict[str, dict]:
    fig2 = _fig_base("fig2", {"max_p_x": 0.003, "max_p_y": 0.0005,
                              "min_final_p_f": 0.99})
    fig3 = _fig_base("fig3", {"max_p_x": 0.002, "max_p_y": 0.0003,
                              "min_final_p_f": 0.99})
    fig3["overrides"] = [
        {"pulse": "stokes", "k": k, "j": j, "value": v}
        for k, j, v in _FIG3_EDITS
    ]
    fig4 = _fig_base("fig4", {"max_p_x": 0.0003, "max_p_y": 0.0001,
                              "min_final_p_f": 0.99})
    # the story here is two vanishing target dipoles, so zero them in the
    # system as well: the pruning rule then removes the matching pumps
    fig4["system"]["mu_stokes"][0][6] = 0
    fig4["system"]["mu_stokes"][1][6] = 0
    fig4["overrides"] = [
        {"pulse": "stokes", "k": 1, "j": 7, "value": 0},
        {"pulse": "stokes", "k": 2, "j": 7, "value": 0},
        {"pulse": "pump", "k": 1, "value": 0},
        {"pulse": "pump", "k": 2, "value": 0},
    ]
    fig5 = _fig_base("fig5", {"max_p_x": 0.003, "max_p_y": 0.0005,
                              "min_final_p_f": 0.99})
    fig5["overrides"] = [
        {"pulse": "stokes", "k": k, "j": j, "value": 0}
        for k in range(1, 8) for j in (1, 2)
    ]
    return {"fig2": fig2, "fig3": fig3, "fig4": fig4, "fig5": fig5}


def builtin_names() -> tuple[str, ...]:
    return ("fig2", "fig3", "fig4", "fig5")


def builtin_scenario(name: str) -> Scenario:
    """One of the shipped reference scenarios (``fig2`` .. ``fig5``)."""
    dicts = _builtin_dicts()
    if name not in dicts:
        raise ScenarioError(
            f"unknown built-in scenario {name!r}; choose from {sorted(dicts)}")
    return _scenario_from_dict(dicts[name])


def load_scenario(path) -> Scenario:
    """Load a scenario by built-in name, or else from a JSON file.

    A built-in name always means the built-in: a file called ``fig2`` is
    reached as ``./fig2``.  Validates against :data:`SCENARIO_SCHEMA` and
    applies all overrides, so the returned scenario is fully resolved.
    """
    if str(path) in builtin_names():
        return builtin_scenario(str(path))
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"no scenario file or built-in named {path!r}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # the decoder recurses once per level of nesting
        raise ScenarioError(
            f"{p}: not valid JSON: nested too deeply") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{p}: cannot read: {exc}") from exc
    return _scenario_from_dict(raw)


def _apply_overrides(fields: FieldSet, overrides: list[dict]) -> FieldSet:
    pump = fields.peak_rabi_pump.copy()
    stokes = fields.peak_rabi_stokes.copy()
    n, m = stokes.shape
    for entry in overrides:
        # the schema reads 1.0 as an integer; numpy indexes with ints only
        k = int(entry["k"])
        value = _to_complex(entry["value"])
        if entry["pulse"] == "pump":
            if "j" in entry:
                raise ValueError("pump overrides take no 'j' index")
            if not 1 <= k <= n:
                raise ValueError(f"unknown override index: pump k={k}")
            pump[k - 1] = value
        else:
            if "j" not in entry:
                raise ValueError("stokes overrides need a 'j' index")
            j = int(entry["j"])
            if not (1 <= k <= n and 1 <= j <= m):
                raise ValueError(f"unknown override index: stokes k={k}, j={j}")
            stokes[k - 1, j - 1] = value
    return FieldSet(pump, stokes, fields.width)


def _scenario_from_dict(raw: dict) -> Scenario:
    _validate(raw)

    sys_raw = raw["system"]
    try:
        system = SystemSpec(
            n_intermediate=sys_raw["n_intermediate"],
            n_degenerate=sys_raw["n_degenerate"],
            mu_pump=_complex_vector(sys_raw["mu_pump"]),
            mu_stokes=_complex_matrix(sys_raw["mu_stokes"]),
        )
        target = TargetSpec.resolve(TargetSpec(_complex_vector(raw["target"])),
                                    system.n_degenerate)
        fields = None
        if "fields" in raw:
            fdict = raw["fields"]
            fields = FieldSet(_complex_vector(fdict["peak_rabi_pump"]),
                              _complex_matrix(fdict["peak_rabi_stokes"]),
                              fdict.get("width", 1.0))
            system.check_fields(fields)
            fields = _apply_overrides(fields, raw.get("overrides", []))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if fields is None and raw.get("overrides"):
        raise ScenarioError("overrides require direct 'fields'")

    design = None
    if "design" in raw:
        block = dict(raw["design"])
        if "eta" in block:
            block["eta"] = _to_complex(block["eta"])
        design = DesignRequest(**block)

    prop_raw = dict(raw.get("propagation", {}))
    if "stride" in prop_raw:
        prop_raw["output_stride"] = prop_raw.pop("stride")

    return Scenario(label=raw["label"], system=system, target=target,
                    fields=fields, design=design,
                    propagation=PropagationConfig(),
                    bounds=Bounds(**raw.get("bounds", {}))
                    ).with_propagation(**prop_raw)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON-ready form of a resolved scenario (hash input).

    Written out as JSON it loads back to a scenario with the same hash.
    """
    out: dict = {
        "label": scenario.label,
        "system": {
            "n_intermediate": scenario.system.n_intermediate,
            "n_degenerate": scenario.system.n_degenerate,
            "mu_pump": [_from_complex(v) for v in scenario.system.mu_pump],
            "mu_stokes": [[_from_complex(v) for v in row]
                          for row in scenario.system.mu_stokes],
        },
        "target": [_from_complex(v) for v in scenario.target.coefficients],
        "propagation": {
            "t_start": scenario.propagation.t_start,
            "t_end": scenario.propagation.t_end,
            "rel_tol": scenario.propagation.rel_tol,
            "abs_tol": scenario.propagation.abs_tol,
            "max_step": scenario.propagation.max_step,
            "stride": scenario.propagation.output_stride,
        },
        "bounds": dataclasses.asdict(scenario.bounds),
    }
    if scenario.fields is not None:
        out["fields"] = {
            "peak_rabi_pump": [_from_complex(v)
                               for v in scenario.fields.peak_rabi_pump],
            "peak_rabi_stokes": [[_from_complex(v) for v in row]
                                 for row in scenario.fields.peak_rabi_stokes],
            "width": scenario.fields.width,
        }
    else:
        req = scenario.design
        out["design"] = {
            "eta": _from_complex(req.eta),
            "width": req.width,
            "stokes_amplitudes": list(req.stokes_amplitudes),
            "stokes_phases": (None if req.stokes_phases is None
                              else list(req.stokes_phases)),
        }
    return out


def config_hash(scenario: Scenario) -> str:
    payload = json.dumps(scenario_to_dict(scenario), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _check_bounds(bounds: Bounds, traj: Trajectory) -> list[str]:
    """Violated bounds, judged on the sampled trajectory.

    The maxima are taken over the output samples, not over the integrator's
    continuous solution, so a peak that falls between samples is missed and
    the verdict can depend on the stride: ``reproduce fig2`` (stride 0.01)
    reads max P_y 4.960e-4, inside its 5e-4 bound, while the same run with
    ``--stride 0.001`` reads 5.026e-4 and violates it.
    """
    violations = []
    # written as "not within" so that a NaN aggregate counts as a violation
    if bounds.max_p_x is not None and not traj.max_p_x < bounds.max_p_x:
        violations.append(
            f"max P_x {traj.max_p_x:.6e} >= bound {bounds.max_p_x:g}")
    if bounds.max_p_y is not None and not traj.max_p_y < bounds.max_p_y:
        violations.append(
            f"max P_y {traj.max_p_y:.6e} >= bound {bounds.max_p_y:g}")
    if (bounds.min_final_p_f is not None
            and not traj.final_p_f >= bounds.min_final_p_f):
        violations.append(
            f"final P_f {traj.final_p_f:.8f} < bound {bounds.min_final_p_f:g}")
    return violations


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Plain comma-separated time series, one row per sample.

    Columns: ``t_over_T``, per-state populations (initial, intermediates,
    degenerates), the three aggregates and the norm error.  Values are
    printed with full double precision, so identical runs produce identical
    files.  Lines end in ``\r\n``, as :mod:`csv` writes them.
    """
    n, m = trajectory.n_intermediate, trajectory.n_degenerate
    header = (["t_over_T", "p0"]
              + [f"p_i{k}" for k in range(1, n + 1)]
              + [f"p_f{j}" for j in range(1, m + 1)]
              + ["P_x", "P_y", "P_f", "norm_err"])
    table = np.column_stack([trajectory.times_over_width,
                             trajectory.populations, trajectory.p_x,
                             trajectory.p_y, trajectory.p_f,
                             trajectory.norm_error])
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.write(line * len(table) % tuple(table.ravel().tolist()))


def _write_sweep_csv(entries: list[SweepEntry], out_dir) -> None:
    """One row per sweep entry; a failed entry leaves its numbers empty."""
    import csv  # only sweeps with an output directory need it
    with open(Path(out_dir) / "sweep.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["value", "max_p_x", "max_p_y", "final_p_f",
                         "one_minus_p_f", "status"])
        for entry in entries:
            rec = entry.record
            numbers = (["", "", "", ""] if rec is None else
                       [rec.max_p_x, rec.max_p_y, rec.final_p_f,
                        1.0 - rec.final_p_f])
            writer.writerow([entry.value, *numbers, entry.status])


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in label)


def run(scenario: Scenario, out_dir=None) -> tuple[RunRecord, Trajectory]:
    """Design/verify, propagate from the initial state, and summarize.

    With a design request the fields are built first (infeasibility raises
    :class:`~stirapkit.design.DesignError`); direct fields are checked against
    the phase-matching condition and the verdict recorded either way.  When
    ``out_dir`` is given, writes ``<label>.csv`` (time series) and
    ``<label>.json`` (summary record) into it; the directory is created
    first, so a path the OS refuses raises OSError before any work.
    """
    started = datetime.now(timezone.utc).isoformat()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    # design_fields raises DesignError unless the design is feasible
    fields = scenario.resolve_fields()
    verdict = verify_design(scenario.system, fields, scenario.target)

    initial = ground_state(scenario.system,
                           scenario.propagation.t_start * fields.width)
    try:
        traj = propagate(scenario.system, fields, initial,
                         scenario.propagation, scenario.target)
    except ValueError as exc:
        # a loaded scenario is self-consistent, so what propagate rejects is
        # its window and width together (sample times that overflow)
        raise ScenarioError(f"propagation: {exc}") from exc
    violations = _check_bounds(scenario.bounds, traj)
    record = RunRecord(
        label=scenario.label,
        config_hash=config_hash(scenario),
        design_feasible=True if scenario.design is not None else None,
        design_verified=verdict.ok,
        design_residual=verdict.residual,
        design_eta=verdict.eta,
        pruned_pumps=tuple(sorted(verdict.pruned)),
        max_p_x=traj.max_p_x,
        max_p_y=traj.max_p_y,
        final_p_f=traj.final_p_f,
        max_norm_error=traj.max_norm_error,
        bounds_ok=not violations,
        violations=tuple(violations),
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
    )
    if out_dir is not None:
        write_trajectory_csv(traj, out / f"{_slug(scenario.label)}.csv")
        (out / f"{_slug(scenario.label)}.json").write_text(
            json.dumps(record.to_dict(), indent=2) + "\n")
    return record, traj


def _sweep_label(scenario: Scenario, axis: str, value: float,
                 pump_index: int) -> str:
    """Label, and so file stem, of the run a sweep derives at ``value``."""
    tag = {"width": f"width x{value:g}",
           "amplitude-scale": f"amp x{value:g}",
           "phase-perturbation": f"phase P{pump_index} +{value:g}",
           "eta": f"eta {value:g}"}[axis]
    return f"{scenario.label}[{tag}]"


def _derive_scenario(scenario: Scenario, axis: str, value: float,
                     pump_index: int) -> Scenario:
    fields = scenario.resolve_fields()
    if axis == "width" and value <= 0:
        raise ScenarioError("width factors must be positive")
    if (axis == "phase-perturbation"
            and not 1 <= pump_index <= fields.n_intermediate):
        raise ScenarioError(f"unknown pump index {pump_index}")
    # a value that overflows an amplitude or the width is bad input; FieldSet
    # rejects the non-finite result, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        if axis == "phase-perturbation":
            pump = fields.peak_rabi_pump.copy()
            pump[pump_index - 1] *= np.exp(1j * value)
        elif axis == "eta":
            # outside the try below: an infeasible ratio stays a DesignError
            pump = matched_pump_rabi(fields.peak_rabi_stokes, scenario.target,
                                     complex(value))
        try:
            if axis == "width":
                fields = fields.with_width(fields.width * value)
            elif axis == "amplitude-scale":
                fields = fields.scaled(value)
            else:
                fields = FieldSet(pump, fields.peak_rabi_stokes, fields.width)
        except ValueError as exc:
            raise ScenarioError(f"{axis} {value:g}: {exc}") from exc
    return dataclasses.replace(
        scenario, label=_sweep_label(scenario, axis, value, pump_index),
        fields=fields, design=None)


def _sweep_worker(args) -> SweepEntry:
    scenario, axis, value, pump_index, out_dir = args
    try:
        derived = _derive_scenario(scenario, axis, value, pump_index)
        record, _ = run(derived, out_dir)
        return SweepEntry(value=value, record=record)
    # DesignError and ScenarioError are ValueErrors; OSError is an output
    # file the OS refuses
    except (ValueError, RuntimeError, OSError) as exc:
        return SweepEntry(value=value, record=None,
                          error=f"{type(exc).__name__}: {exc}",
                          error_type=type(exc))


def sweep(scenario: Scenario, axis: str, values, pump_index: int = 1,
          jobs: int | None = None, out_dir=None) -> list[SweepEntry]:
    """One run per axis value; failures are recorded, not raised.

    Axes: ``width`` (stretch all pulses), ``amplitude-scale`` (scale all peak
    amplitudes), ``phase-perturbation`` (rotate one pump phase by the value,
    in radians), ``eta`` (re-derive the pump set from the Stokes block at the
    given ratio).  With more than one job the entries execute in a process
    pool of at most one worker per value; either way they are returned in
    input order.  When ``out_dir`` is given, each run writes its files there
    and ``sweep.csv`` tabulates all entries.  Fewer than one job, and values
    whose run labels coincide (labels print values with ``:g``), are
    rejected before any run, and so is an ``out_dir`` that cannot be created
    (OSError).
    """
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    values = [float(v) for v in values]
    if not values:
        raise ScenarioError("sweep needs at least one value")
    if not all(np.isfinite(values)):
        raise ScenarioError("sweep values must be finite")
    # runs that share a label share output files, and their table rows read alike
    seen: dict[str, float] = {}
    for v in values:
        label = _sweep_label(scenario, axis, v, pump_index)
        if label in seen:
            raise ScenarioError(f"sweep values {seen[label]!r} and {v!r} both "
                                f"give the run label {label!r}")
        seen[label] = v
    tasks = [(scenario, axis, v, pump_index, out_dir) for v in values]
    if jobs is None:
        jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise ScenarioError(f"sweep needs at least one job, got {jobs}")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    # a fork-based pool starts all its workers on the first submit
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        entries = [_sweep_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_sweep_worker, tasks))
    if out_dir is not None:
        _write_sweep_csv(entries, out_dir)
    return entries
