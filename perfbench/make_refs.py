"""Write ``refs.json``: frozen final states and bound verdicts.

Each reference is the built-in scenario run through the public API at
``rel_tol = abs_tol = 1e-12``, a hundred times tighter than the default the
benchmarked commands use.  Run from the repository root:

    python3 perfbench/make_refs.py

Regenerate only when the physics contract changes; the benchmark judges
every later version of the package against these numbers.
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import stirapkit as sk  # noqa: E402
from workloads import (FIGURES, REFS_PATH, SWEEP_AXIS, SWEEP_SCENARIO,  # noqa: E402
                       SWEEP_VALUES, sweep_label)

REF_TOL = 1e-12


def reference(scenario) -> dict:
    tight = dataclasses.replace(scenario.propagation, rel_tol=REF_TOL,
                                abs_tol=REF_TOL)
    record, traj = sk.run(dataclasses.replace(scenario, propagation=tight))
    final = traj.states[-1]
    if not (np.isfinite(final).all() and np.isfinite(traj.populations).all()):
        raise RuntimeError(f"{scenario.label}: non-finite reference run")
    return {
        "label": scenario.label,
        "bounds": sk.scenario_to_dict(scenario)["bounds"],
        "bounds_ok": record.bounds_ok,
        "violations": list(record.violations),
        "final_state": [[float(v.real), float(v.imag)] for v in final],
    }


def main() -> None:
    refs = {
        "made_by": "perfbench/make_refs.py",
        "rel_tol": REF_TOL,
        "abs_tol": REF_TOL,
        "versions": {"stirapkit": sk.__version__,
                     "numpy": np.__version__},
        "reproduce": {name: reference(sk.builtin_scenario(name))
                      for name in FIGURES},
    }
    base = sk.builtin_scenario(SWEEP_SCENARIO)
    points = []
    for value in SWEEP_VALUES:
        scaled = dataclasses.replace(base, label=sweep_label(value),
                                     fields=base.fields.scaled(value))
        points.append(dict(reference(scaled), value=value))
    refs["sweep-amplitude"] = {"scenario": SWEEP_SCENARIO, "axis": SWEEP_AXIS,
                               "points": points}
    REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    for name, ref in refs["reproduce"].items():
        print(name, "bounds_ok" if ref["bounds_ok"] else ref["violations"])
    for point in points:
        print(point["label"],
              "bounds_ok" if point["bounds_ok"] else point["violations"])


if __name__ == "__main__":
    main()
