"""Import graph and public surface.

Importing scipy costs about half a second, most of a fresh process's start-up.
Design, verification and null-space work never integrate, so they must run
without it; a test guards that in a fresh interpreter.  Every exported name
must resolve, and names deleted from the public surface must stay gone.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stirapkit

MODULES = ["stirapkit.model", "stirapkit.design", "stirapkit.nullspace",
           "stirapkit.propagation", "stirapkit.scenarios"]

# Second paths to results the package reaches through design_fields,
# hamiltonian, track_null_frame, propagate, check_feasibility,
# converged_max_coupling and ``sweep --axis width``.
DELETED = ["PulseSpec", "fieldset_from_pulses", "rabi_pump", "rabi_stokes",
           "reduce_channels", "s_matrix", "det_s", "track_eigenvector",
           "phase_aligned_overlap", "evolve_state", "adiabaticity_report",
           "LadderRung", "AdiabaticityReport", "nonadiabatic_coupling",
           "CouplingDiagnostics", "pump_envelope", "stokes_envelope",
           "coupling_blocks"]


@pytest.mark.parametrize("module", ["stirapkit"] + MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_stays_gone(name):
    assert not hasattr(stirapkit, name)
    assert name not in stirapkit.__all__

DESIGN_SCENARIO = {
    "label": "import-graph",
    "system": {"n_intermediate": 3, "n_degenerate": 2,
               "mu_pump": [1.0, 0.8, 1.2],
               "mu_stokes": [[1.0, 0.3], [0.5, 1.1], [0.2, 0.9]]},
    "target": [0.0, 1.0],
    "design": {"stokes_amplitudes": [90.0, 110.0, 70.0], "eta": 1.0},
    "propagation": {"stride": 0.5},
}

CHILD = """
import json, sys
import numpy as np
import stirapkit
import stirapkit.cli
from stirapkit import (analytic_lambda1, check_feasibility, ground_state,
                       hamiltonian, load_scenario, numeric_null_space,
                       propagate, track_null_frame, verify_design)

def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

loaded = {"import": scipy_modules()}
scenario = load_scenario(sys.argv[1])
system, target = scenario.system, scenario.target
assert check_feasibility(system, target, scenario.design.eta).feasible
fields = scenario.resolve_fields()
assert verify_design(system, fields, target).ok
assert len(numeric_null_space(hamiltonian(system, fields, 0.3),
                              tol=1e-9 * fields.max_rabi)) == 2
grid = np.linspace(-1.5, 2.5, 81)
track_null_frame(lambda t: hamiltonian(system, fields, t),
                 [analytic_lambda1(system, fields, grid[0], target)], grid,
                 system=system)
loaded["design"] = scipy_modules()
propagate(system, fields, ground_state(system, -4.0 * fields.width),
          scenario.propagation, target)
loaded["propagate"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_scipy_loads_only_to_integrate(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(DESIGN_SCENARIO))
    src = str(Path(stirapkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", CHILD, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["design"] == []
    assert "scipy.integrate" in loaded["propagate"]


def test_cli_import_leaves_csv_unloaded():
    # only a sweep that writes its table needs csv, and it imports it then
    src = str(Path(stirapkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, stirapkit, stirapkit.cli; print('csv' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
