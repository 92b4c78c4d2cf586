"""Import graph and public surface.

No scipy at runtime: the package carries DOP853's tableau itself, so design,
verification, null-space work and integration load no scipy module, and the
commands run with scipy blocked.  A fresh ``stirapkit reproduce fig2``
process takes 0.47 s without scipy, against 1.02 s when it imported
``scipy.integrate`` (medians of 12 pairs, ``BENCH_22.json``).  Fresh
interpreters guard both.  Every exported name must resolve, and names deleted
from the public surface must stay gone.
"""

import hashlib
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


def child_env():
    """The environment of a child interpreter that imports this package."""
    src = str(Path(stirapkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_no_scipy_at_runtime(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(DESIGN_SCENARIO))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(path)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["design"] == []
    assert loaded["propagate"] == []


# Runs the commands in-process with every scipy import made to fail.
BLOCKED_CHILD = """
import json, sys
sys.modules["scipy"] = None
from stirapkit.cli import main

codes = []
for args in (["reproduce", "fig2", "--out", sys.argv[1]],
             ["sweep", "fig2", "--axis", "amplitude-scale", "--values", "1,2",
              "--jobs", "1"]):
    try:
        main(args)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""

# SHA-256 of ``reproduce fig2``'s trajectory CSV
FIG2_CSV_SHA256 = ("35fc12e456a45e57e3c5c9ddd2c05f571b473938357c51198ef878b9"
                   "2bf37197")


def test_commands_run_with_scipy_blocked(tmp_path):
    proc = subprocess.run([sys.executable, "-c", BLOCKED_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0]
    (csv,) = tmp_path.glob("*.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == FIG2_CSV_SHA256


def test_cli_import_leaves_csv_unloaded():
    # only a sweep that writes its table needs csv, and it imports it then
    code = "import sys, stirapkit, stirapkit.cli; print('csv' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
