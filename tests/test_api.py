"""Every public name of the package is used by the package or its benchmark,
and so is every private helper, every parameter default that can be
overridden and every public dataclass field.

A public function, class, method or property that only tests call is API
kept alive for its tests, and so is a parameter that only tests set or a
field that only tests read; a private helper whose last caller was deleted is
dead code.  These guards find all four by parsing the sources.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taplab"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# the oracles are independent ground truth that the tests compare against
EXEMPT_MODULES = {"oracle"}
# the state-evolution reference that the AMP tests check the iterates against,
# and NGD alone, the paper's algorithm, whose linear tail acceptance test_4
# checks and whose minimizers the Newton tests compare against
EXEMPT_NAMES = {"amp.se_diagnostics", "ngd.ngd_run"}
# parameters with a default that only tests set, each kept on purpose
EXEMPT_PARAMETERS = {
    # the console entry point: the tests drive it with an argument list
    "cli.main": {"argv"},
}


def _public(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node


def public_functions():
    """(module.name, def node, is method) of each public top-level function
    and each public method of a public top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT_MODULES:
            continue
        for node in _public(ast.parse(path.read_text()).body):
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node, False
            else:
                for member in _public(node.body):
                    if isinstance(member, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{member.name}", member, True


def defaulted_parameters(fn, method):
    """(name, position) of each parameter with a default; position counts
    from the first argument a caller passes and is None for keyword-only."""
    args = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    if method and not static:
        args = args[1:]  # self or cls
    first = len(args) - len(fn.args.defaults)
    for pos, arg in enumerate(args[first:], first):
        yield arg.arg, pos
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def calls():
    """Last name of each called expression -> list of (positional count,
    keyword names); a call with *args or **kwargs passes everything, which
    reads as (inf, None)."""
    out = {}
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) \
                else func.attr if isinstance(func, ast.Attribute) else None
            spread = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append(
                (float("inf"), None) if spread
                else (len(node.args), {k.arg for k in node.keywords}))
    return out


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


def private_names():
    """(module.name, name) of each private top-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_fields():
    """(module.Class.field, field) of each public field of each public
    dataclass."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT_MODULES:
            continue
        for node in _public(ast.parse(path.read_text()).body):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for member in node.body:
                    if isinstance(member, ast.AnnAssign):
                        name = member.target.id
                        if not name.startswith("_"):
                            yield f"{path.stem}.{node.name}.{name}", name


def read_attributes():
    """Each name read as an attribute, ``x.name``."""
    return {node.attr for path in USERS
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def used_nodes():
    """Each node of the package and the benchmark but those in the body of a
    function named in EXEMPT_NAMES: what only an exempt test reference
    reaches is not used."""
    for path in USERS:
        tree = ast.parse(path.read_text())
        exempt = {id(node) for top in tree.body
                  if isinstance(top, ast.FunctionDef)
                  and f"{path.stem}.{top.name}" in EXEMPT_NAMES
                  for stmt in top.body for node in ast.walk(stmt)}
        yield from (node for node in ast.walk(tree) if id(node) not in exempt)


def referenced_names():
    """Each name read as a variable or an attribute; an import is not a use."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in used_nodes() if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_caller_outside_the_tests():
    found = dict(public_names())
    used = referenced_names()
    # the scan sees methods, properties and imported names
    assert found["free_energy.VariationalState.from_moments"] == "from_moments"
    assert found["free_energy.LinearModel.delta_hat"] == "delta_hat"
    assert {"tilted_moments_vec", "from_duals", "TapLabError"} <= used
    # but not a name that only the body of an exempt test reference reads
    assert "K_h" not in used
    unused = sorted(full for full, name in found.items()
                    if name not in used and full not in EXEMPT_NAMES)
    assert unused == [], f"public names with no caller outside the tests: {unused}"


def test_every_private_helper_has_a_caller_outside_the_tests():
    found = dict(private_names())
    used = referenced_names()
    # the scan sees helpers called within their module and imported by others
    assert found["ngd._newton_direction"] == "_newton_direction"
    assert {"_newton_direction", "_apply_blocks"} <= used
    orphans = sorted(full for full, name in found.items() if name not in used)
    assert orphans == [], f"private helpers with no caller outside the tests: {orphans}"


def test_every_parameter_default_is_overridden_outside_the_tests():
    found = {full: (fn, method) for full, fn, method in public_functions()}
    # the scan counts positions from the first argument and finds calls by
    # their last name
    assert ("delta", 4) in defaulted_parameters(*found["amp.amp_run"])
    made = calls()
    assert (3, {"delta"}) in made["amp_run"]
    unset = []
    for full, (fn, method) in found.items():
        if full in EXEMPT_NAMES:
            continue
        name = full.rsplit(".", 1)[1]
        for param, pos in defaulted_parameters(fn, method):
            if param in EXEMPT_PARAMETERS.get(full, ()):
                continue
            if not any(keywords is None or param in keywords
                       or (pos is not None and pos < count)
                       for count, keywords in made.get(name, [])):
                unset.append(f"{full}({param})")
    assert unset == [], f"parameter defaults that only tests override: {unset}"


def test_every_dataclass_field_is_read_outside_the_tests():
    found = dict(dataclass_fields())
    read = read_attributes()
    # the scan sees fields of frozen dataclasses, and reads but not writes
    assert found["ngd.NGDTrace.stop_reason"] == "stop_reason"
    assert found["priors.Prior.sampler"] == "sampler"
    assert {"stop_reason", "sampler"} <= read
    # matching by name cannot see a field whose name another class also
    # reads: AMPState.m and .s would pass on VariationalState's m and s
    unread = sorted(full for full, name in found.items() if name not in read)
    assert unread == [], f"dataclass fields read only by the tests: {unread}"
