"""The package's exports are lazy, and a run loads only the modules it reaches.

Which module bodies ran is read in a fresh interpreter, because this test
session has imported every module already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crystaframe

ROOT = Path(__file__).resolve().parents[1]
SCN = ROOT / "scenarios"

# Every public name of the package, by the module that defines it.
EXPORTS = {
    "residues": [
        "GaloisField", "PrecisionExhausted", "PrecisionLedger", "Residues",
        "divided_power_constant", "gamma_of_p",
    ],
    "monomial": ["MonomialAlgebra", "adjoin_p_roots", "embed_after_adjoin", "frobenius_kernel_nilpotency"],
    "witt": ["WittRing", "witt_cache"],
    "frames": [
        "AdmissibleSequence", "BudgetError", "Frame", "FrameError", "FrameHom", "LiftFrame",
        "NilpotenceReport", "QuotientFrame", "WittFrame", "admissible_quotient_frame", "lift_frame",
        "sigma1_nilpotence_index", "validate_frame_hom", "witt_frame",
    ],
    "pdenv": [
        "PDAlgebra", "PDDifferential", "PDError", "PDFrame", "PDPresentation", "build_pd_envelope",
        "pd_frame", "pd_torsion_probe",
    ],
    "windows": [
        "ClassTable", "Window", "WindowBudgetError", "WindowError", "are_isomorphic", "base_change",
        "classify_windows", "f_nilpotence", "fv_operators", "hom_space", "is_phi_hom", "is_window_hom",
        "lift_hom_along", "lift_window_along", "normal_decomposition", "validate_window",
        "window_from_psi", "window_from_raw",
    ],
    "nabla": [
        "Connection", "NablaContext", "SquareZeroFrame", "connection_to_stratification",
        "horizontality_check", "integrability_and_qnilpotence", "pbar0", "pbar1",
        "produced_connections", "solve_connection", "square_zero_frame",
        "stratification_to_connection", "zero_connection",
    ],
    "batteries": ["verify"],
}

# The modules a lift-frame scenario never needs.
OPTIONAL = {"pdenv", "nabla", "batteries", "homsweep", "witt", "monomial", "intpoly"}

# Runs `crystaframe run <file>` (or, with no file, only imports the package)
# and prints the crystaframe modules in sys.modules and those whose body ran.
# A deferred module sits in sys.modules before its body runs, and reading an
# attribute of it, vars() included, would run the body; so the module dict
# is read through object.__getattribute__.  A body that ran bound names.
PROBE = """
import contextlib, io, json, sys
import crystaframe.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert crystaframe.cli.main(["run", *sys.argv[1:]]) == 0
mods = {n[len("crystaframe."):]: m for n, m in list(sys.modules.items()) if n.startswith("crystaframe.")}
ran = [n for n, m in mods.items() if any(not k.startswith("__") for k in object.__getattribute__(m, "__dict__"))]
print(json.dumps({"registered": sorted(mods), "ran": sorted(ran)}))
"""


def probe(*args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_runs_no_optional_module_but_registers_the_traced_ones():
    seen = probe()
    assert not OPTIONAL & set(seen["ran"])
    assert {"cli", "runner", "scenario", "report"} <= set(seen["ran"])
    # the benchmark's layer tracer looks these up in sys.modules after `import crystaframe.cli`
    assert {"witt", "pdenv", "nabla"} <= set(seen["registered"])


def test_lift_frame_run_loads_no_optional_module():
    ran = set(probe(str(SCN / "classify_rank1_zp2.scn"))["ran"])
    assert not OPTIONAL & ran
    assert {"frames", "windows", "linalg"} <= ran


@pytest.mark.parametrize("scenario,needs", [("pd_desk.scn", "pdenv"), ("witt_frame_f2.scn", "witt")])
def test_runs_load_the_modules_they_reach(scenario, needs):
    assert needs in probe(str(SCN / scenario))["ran"]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_resolves_to_its_definition(module):
    defining = importlib.import_module(f"crystaframe.{module}")
    listed = dir(crystaframe)
    for name in EXPORTS[module]:
        assert getattr(crystaframe, name) is getattr(defining, name), name
        assert name in listed, name


def test_verify_tags_and_submodules_resolve():
    from crystaframe.scenario import VERIFY_TAGS

    assert crystaframe.VERIFY_TAGS is VERIFY_TAGS
    assert "VERIFY_TAGS" in dir(crystaframe)
    # a deferred module is never bound on the package by the import system
    assert crystaframe.pdenv is sys.modules["crystaframe.pdenv"]
    assert crystaframe.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crystaframe.no_such_name
    assert not hasattr(crystaframe, "_EXPORTS_typo")
