"""The package top level re-exports exactly the README's public API, every
other name stays in its own module, and the README's quick start runs."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import stable_extrap

MODULES = ("basis", "cli", "experiments", "extrapolator", "fastgram",
           "solver", "vandermonde", "verify")

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Public names in src/ that nothing calls yet, kept on purpose.
UNCALLED_ALLOWED = {
    # The paper's optimality witness, which acceptance criterion 06 and the
    # README present; its only callers are tests.
    "minimax_witness",
    # The Gerschgorin enclosure of the paper's proof, which ROADMAP item 5
    # adds to the `gerschgorin` suite.
    "gerschgorin_interval",
}

# Every name the top level once re-exported, by the module that defines it.
# Those outside the public API are imported from these modules.
MODULE_NAMES = {
    "basis": ("Basis", "ChebyshevSeries", "Grid", "GridKind", "SampleSet", "cheb_eval",
              "clenshaw_eval", "make_grid"),
    "vandermonde": ("SpectralReport", "design_matrix", "dominant_eigenvalue",
                    "dominant_singular_value", "gram_naive", "jacobi_eigenvalues",
                    "lebesgue_constant", "spectral_report"),
    "fastgram": ("gram_fast", "rhs"),
    "solver": ("FitResult", "SolverError", "basis_change_matrix", "fit", "psi_table"),
    "extrapolator": ("DegreeChoice", "ExtrapolationReport", "MinimaxWitness",
                     "PointReport", "ProblemParams", "Regime", "extrapolate",
                     "minimax_witness", "optimal_degree", "r_alpha"),
    "verify": ("CheckResult", "check_dplusc", "check_fplusc", "check_gram_condition",
               "check_interpolation_sandwich", "check_s_norm", "check_singular_bounds",
               "gerschgorin_interval", "run_suite"),
    "experiments": ("NoiseKind", "NoiseModel", "Table", "TEST_FUNCTIONS",
                    "bernstein_rho_from_pole", "plateau_statistic", "run_alpha_profile",
                    "run_extrapolation_decay", "run_gram_timing", "run_noise_plateau",
                    "run_singular_bounds_sweep"),
}


def init_reexports():
    """(module, name) for each `from .module import name` in __init__.py."""
    tree = ast.parse(Path(stable_extrap.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def readme_public_api():
    """The backquoted names on the README's one `Public API:` line."""
    lines = re.findall(r"^Public API: (.*)$", README.read_text(encoding="utf-8"), re.M)
    assert len(lines) == 1
    return re.findall(r"`(\w+)`", lines[0])


def test_every_module_is_listed():
    package = Path(stable_extrap.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__") == sorted(MODULES)


def test_reexports_are_the_readme_public_api():
    names = [name for _, name in init_reexports()]
    assert len(names) == len(set(names))
    assert set(names) == set(readme_public_api())


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_names_stay_in_their_modules(module):
    assert sum(map(len, MODULE_NAMES.values())) == 53
    mod = importlib.import_module(f"stable_extrap.{module}")
    for name in MODULE_NAMES[module]:
        obj = getattr(mod, name)
        assert getattr(obj, "__module__", mod.__name__) == mod.__name__, f"{module}.{name}"
        if hasattr(stable_extrap, name):
            assert getattr(stable_extrap, name) is obj, f"{module}.{name}"


def test_every_public_name_has_a_caller():
    """Each public top-level function, class or constant of src/ is used in
    the code of src/ or perfbench/, or is on the README's Public API line.
    A use is a load of the name, an attribute of that name, or a name that
    perfbench imports or that its tracer wraps (tracing.WRAPPED); imports in
    src/ and mentions in docstrings do not count."""
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "stable_extrap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.stem
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update({t.id: path.stem for t in targets if isinstance(t, ast.Name)})
        used.update(_loads(tree))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(_loads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Assign) and path.stem == "tracing"
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]):
                used.update(entry.elts[1].value for entry in node.value.elts)
    public_api = set(readme_public_api())
    uncalled = {(module, name) for name, module in defined.items()
                if not name.startswith("_") and name not in used | public_api}
    assert uncalled == {(m, n) for n, m in defined.items() if n in UNCALLED_ALLOWED}


def _loads(tree):
    """Names loaded, and attribute names read, anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4
