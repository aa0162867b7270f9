import ast
import subprocess
import sys
from pathlib import Path

import fptkit

from conftest import src_env

# One name per question: a query builds a TestIdealComputer and asks it
# (ideal_at, left_limit_at, is_jump, fpt, f_threshold), and nu is asked of
# a FrobeniusRootEngine; ideal sums,
# products and equality are Ideal(...) and ==.  A name added here is a new
# public entry point, not a second spelling of an existing one.
PUBLIC = [
    "ConstancyReport",
    "DomainError",
    "EngineError",
    "ExponentPair",
    "FrobeniusRootEngine",
    "Ideal",
    "InfeasibleError",
    "JumpingNumberReport",
    "NotMPrimaryError",
    "ParseError",
    "PerturbationRecord",
    "PolyRing",
    "Polynomial",
    "SingularityProfile",
    "StabilityError",
    "TestIdealComputer",
    "artinian_length",
    "bracket_power",
    "candidate_set",
    "canonical_pair",
    "constancy_report",
    "default_bound",
    "degree_bound",
    "format_rational",
    "frobenius_root_ideal",
    "jacobian",
    "jumping_numbers_unit_interval",
    "least_parameter",
    "local_ideal_equal",
    "maximal_ideal",
    "maximal_ideal_power",
    "normal_form",
    "parse_polynomial",
    "parse_rational",
    "partial_derivative",
    "power",
    "random_perturbation",
    "singularity_profile",
]


def test_public_surface_is_pinned():
    assert sorted(fptkit.__all__) == PUBLIC
    for name in PUBLIC:
        obj = getattr(fptkit, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("fptkit."), name
        assert name in module.__all__, (name, module.__name__)


def test_imports_name_only_fptkit_and_the_standard_library():
    # the package has no runtime dependencies
    for path in sorted(Path(fptkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one, which names fptkit
            for name in names:
                top = name.split(".")[0]
                assert top == "fptkit" or top in sys.stdlib_module_names, (path.name, name)


def test_cli_import_loads_no_heavy_standard_modules():
    # every CLI query pays for the import; dataclasses alone pulls in
    # inspect, ast and dis and runs an exec per decorated class
    code = (
        "import sys; before = set(sys.modules); import fptkit.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
    )
    added = set(proc.stdout.split())
    assert "fptkit.cli" in added
    assert not added & {"dataclasses", "inspect", "typing"}, sorted(added)


def test_package_reexports_every_module_name():
    # each module's __all__ is its public surface, and fptkit re-exports all of it
    for name, module in sorted(sys.modules.items()):
        if name.startswith("fptkit.") and hasattr(module, "__all__"):
            missing = set(module.__all__) - set(fptkit.__all__)
            assert not missing, (name, sorted(missing))
