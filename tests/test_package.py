import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sturmosc

MODULES = sorted(info.name for info in pkgutil.iter_modules(sturmosc.__path__, "sturmosc."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # `import sturmosc` never reads a module's __all__, so a stale entry
    # would only fail a star import
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# A fresh interpreter: import the package and the CLI, run one criteria
# check, then one pole search and one solve, and report after each step
# which of the scipy modules are loaded.
IMPORT_STEPS = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path

def loaded():
    return sorted(m for m in ("scipy", "scipy.integrate", "scipy.optimize")
                  if m in sys.modules)

steps = {}
import sturmosc, sturmosc.cli
from sturmosc import (ComparisonFamily, CoefficientPair, CurvatureProfile,
                      blow_up_time, constant, solve_jacobi)
steps["import"] = loaded()
out = Path(sys.argv[2])
(out / "check.ini").write_text(sys.argv[3])
assert sturmosc.cli.main(["check", "--config", str(out / "check.ini"),
                          "--out", str(out)]) == 0
steps["check"] = loaded()
pair = CoefficientPair(constant(1.0), constant(1.0), b_const=1.0, t_start=0.0,
                       validate=False)
assert abs(blow_up_time(ComparisonFamily(1.0, 1.0, "radial", pair)) - 2.0) < 1e-9
steps["blow_up_time"] = loaded()
assert len(solve_jacobi(CurvatureProfile(constant(1.0), m=2), 4.0).zeros) == 1
steps["solve_jacobi"] = loaded()
print(json.dumps(steps))
"""

CHECK_CONFIG = """\
[profile:K1]
kind = constant
c = 1.0
[profile:v_sq]
kind = power
c = 1.0
p = 2.0
[profile:W_euler]
kind = power
c = 0.3
p = -2.0
[curvature:unit]
k = K1
b_const = 1.0
m = 2
[pair:euler]
v = v_sq
w = W_euler
b_const = 0.0
t_start = 1.0
[check]
criteria = main_b2 myers_galloway moore_liminf first_zero
curvature = unit
pair = euler
a = 1.0
b = 3.5
lambda = 0.0
c = 1.0
m = 2
r_start = 1.0
c_thresh = 0.26
"""


def test_scipy_is_imported_by_the_first_solve_or_pole_search(tmp_path):
    # a criteria check needs no solver, so it must not pay scipy's import
    src = Path(sturmosc.__file__).parents[1]
    run = subprocess.run([sys.executable, "-c", IMPORT_STEPS, str(src), str(tmp_path),
                          CHECK_CONFIG], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    steps = json.loads(run.stdout)
    assert steps["import"] == steps["check"] == []
    assert "scipy.optimize" in steps["blow_up_time"]
    assert "scipy.integrate" not in steps["blow_up_time"]
    assert "scipy.integrate" in steps["solve_jacobi"]


# every scipy import in src/sturmosc: (module, enclosing function, scipy
# module, imported name); the DOP853 tableau, step control and first step,
# and the pole search's root finder
SCIPY_IMPORTS = {
    ("_dop853", "", "scipy.integrate._ivp", "dop853_coefficients"),
    ("_dop853", "", "scipy.integrate._ivp.common", "select_initial_step"),
    ("_dop853", "", "scipy.integrate._ivp.rk", "MAX_FACTOR"),
    ("_dop853", "", "scipy.integrate._ivp.rk", "MIN_FACTOR"),
    ("_dop853", "", "scipy.integrate._ivp.rk", "SAFETY"),
    ("riccati", "blow_up_time", "scipy.optimize", "brentq"),
}


def _scipy_imports(node, module, scope, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            found |= {(module, scope, alias.name, None) for alias in child.names
                      if alias.name.split(".")[0] == "scipy"}
        elif isinstance(child, ast.ImportFrom):
            if (child.module or "").split(".")[0] == "scipy":
                found |= {(module, scope, child.module, alias.name)
                          for alias in child.names}
        else:
            inner = (f"{scope}.{child.name}".lstrip(".") if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope)
            _scipy_imports(child, module, inner, found)
    return found


def test_scipy_is_imported_only_where_listed():
    found = set()
    for path in sorted(Path(sturmosc.__file__).parent.glob("*.py")):
        _scipy_imports(ast.parse(path.read_text()), path.stem, "", found)
    assert found == SCIPY_IMPORTS
