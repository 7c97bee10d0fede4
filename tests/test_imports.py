import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import zeroflow

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_import_loads_neither_scipy_nor_mpmath():
    # both are heavy imports that every command and benchmark would pay for
    src = os.path.dirname(os.path.dirname(zeroflow.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys, zeroflow\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks star imports
    missing = [name for name in zeroflow.__all__ if not hasattr(zeroflow, name)]
    assert missing == []
    namespace = {}
    exec("from zeroflow import *", namespace)
    assert set(zeroflow.__all__) <= set(namespace)


PUBLIC_NAMES = [
    "ClassicalFamily", "Configuration", "DegenerateSpectrumError", "Domain",
    "EquationSpec", "EquilibriumReport", "FamilyTag", "FlowOptions",
    "InitStrategy", "InsufficientDecay", "MaxIterExceeded", "PointOnBoundary",
    "PolynomialCoefficients", "PropagatorOverflow", "RateReport",
    "RootCountMismatch", "SingularJacobian", "Snapshot", "TerminationReason",
    "Trajectory", "ZeroflowError", "__version__", "check_simple_spectrum",
    "convergence_options", "default_init", "eigen_coefficients", "eigenvalue",
    "eigenvalue_gap", "estimate_rate", "heat_propagate", "integrate",
    "make_classical", "newton_solve", "operator_matrix", "oracle_zeros",
    "poly_roots", "residual", "residual_jacobian", "stieltjes_energy",
    "stieltjes_gradient", "verify_theorem1",
]


def test_public_names_pinned():
    assert len(PUBLIC_NAMES) == 41
    assert sorted(zeroflow.__all__) == PUBLIC_NAMES


def test_each_name_declared_and_defined_in_one_module():
    modules = [zeroflow.equilibrium, zeroflow.errors, zeroflow.flow,
               zeroflow.operator_core, zeroflow.spectral]  # fmt: skip
    for name in zeroflow.__all__:
        if name == "__version__":
            continue
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1, (name, [m.__name__ for m in owners])
        obj = getattr(owners[0], name)
        assert obj.__module__ == owners[0].__name__, name
        assert getattr(zeroflow, name) is obj


# modules of this repository that the test modules import by plain name
LOCAL_MODULES = {"zeroflow", "conftest", "reference", "workloads"}


def test_every_third_party_test_import_is_declared():
    # a fresh `pip install -e '.[test]'` must be able to collect the suite
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    # each distribution here installs a module of its own name
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}
    known = sys.stdlib_module_names | LOCAL_MODULES | declared
    files = sorted(ROOT.glob("tests/*.py")) + [
        ROOT / "bench" / name
        for name in ("test_reference.py", "reference.py", "workloads.py")
    ]
    undeclared = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in known:
                    undeclared.add((path.relative_to(ROOT).as_posix(), top))
    assert sorted(undeclared) == []


# each module may import only modules of a lower tier; flow and spectral
# share a tier and do not import each other, and cli takes __version__
# from the package
TIERS = [
    ("errors",),
    ("operator_core",),
    ("equilibrium",),
    ("flow", "spectral"),
    ("__init__",),
    ("cli",),
]
TIER = {module: rank for rank, modules in enumerate(TIERS) for module in modules}


def zeroflow_imports(node, nested=False):
    """(zeroflow module, inside a function) for every import below node,
    relative or absolute.  A name that is not a module, such as
    __version__, comes from the package itself, __init__."""
    for child in ast.iter_child_nodes(node):
        paths = []
        if isinstance(child, ast.Import):
            paths = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            base = ".".join(filter(None, ["zeroflow" if child.level else "", child.module]))
            paths = [base] if base != "zeroflow" else [f"zeroflow.{a.name}" for a in child.names]
        for path in paths:
            top, _, module = path.partition(".")
            if top == "zeroflow":
                yield (module if module in TIER else "__init__"), nested
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from zeroflow_imports(child, nested or inner)


def test_package_imports_point_downward_and_sit_at_module_level():
    files = sorted((ROOT / "src" / "zeroflow").glob("*.py"))
    assert sorted(path.stem for path in files) == sorted(TIER)
    upward, in_function = [], []
    for path in files:
        for target, nested in zeroflow_imports(ast.parse(path.read_text(), str(path))):
            if not TIER[path.stem] > TIER[target]:
                upward.append((path.stem, target))
            if nested:
                in_function.append((path.stem, target))
    assert upward == []
    assert in_function == []
