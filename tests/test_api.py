"""Every public name of the package is used by the package or its benchmark.

A public function, class, method or property that only tests call is API
kept alive for its tests; this guard finds such names by parsing the sources.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taplab"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# the oracles are independent ground truth that the tests compare against
EXEMPT_MODULES = {"oracle"}
# the state-evolution reference that the AMP tests check the iterates against
EXEMPT_NAMES = {"amp.se_diagnostics"}


def _public(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node


def public_names():
    """(module.name, name) of each public top-level function and class, and of
    each public method and property of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT_MODULES:
            continue
        for node in _public(ast.parse(path.read_text()).body):
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for member in _public(node.body):
                    if isinstance(member, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{member.name}", member.name


def referenced_names():
    names = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    found = dict(public_names())
    used = referenced_names()
    # the scan sees methods, properties and imported names
    assert found["free_energy.VariationalState.from_moments"] == "from_moments"
    assert found["free_energy.LinearModel.delta_hat"] == "delta_hat"
    assert {"tilted_moments_vec", "from_duals", "TapLabError"} <= used
    unused = sorted(full for full, name in found.items()
                    if name not in used and full not in EXEMPT_NAMES)
    assert unused == [], f"public names with no caller outside the tests: {unused}"
