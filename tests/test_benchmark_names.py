"""The names the benchmark reaches into the package for still resolve.

perfbench/ reaches twintri through a module object, tt (or inputs.tt),
patches module attributes by name and wraps Trigraph methods by name
through Trigraph.__dict__.  Deleting one of those names from src/ would
pass every other test and crash only the benchmark, so this test reads
the names from perfbench/*.py with ast, without importing or changing
anything there, and resolves each on the package.
"""

import ast
from pathlib import Path

import twintri

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_package(node):
    """Whether node is the benchmark's name for the package: tt or x.tt."""
    return (isinstance(node, ast.Name) and node.id == "tt"
            or isinstance(node, ast.Attribute) and node.attr == "tt")


def _package_path(node):
    """The attribute names node reads off the package, outermost first,
    or None when node is not such a chain."""
    names = []
    while isinstance(node, ast.Attribute) and not _is_package(node):
        names.append(node.attr)
        node = node.value
    return tuple(reversed(names)) if _is_package(node) else None


def _resolve(path):
    """What path reads off the package, or None once a name is missing."""
    obj = twintri
    for name in path:
        obj = getattr(obj, name, None)
    return obj


def _references():
    """(attribute paths, [(class path, method names)], [(module path,
    attribute name)]) over every perfbench/*.py file."""
    paths, methods, patched = set(), [], []
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        # module-level tuples of names, such as run.COUNTING_CHILDREN
        tuples = {target.id: node.value
                  for node in tree.body if isinstance(node, ast.Assign)
                  for target in node.targets
                  if isinstance(target, ast.Name) and isinstance(node.value, ast.Tuple)}
        for node in ast.walk(tree):
            path = _package_path(node)
            if path:
                paths.add(path)
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and len(node.args) >= 2):
                continue
            owner, named = _package_path(node.args[0]), node.args[1]
            if owner is None:
                continue
            if node.func.id == "aggregated" and isinstance(named, ast.Name):
                methods.append((owner, ast.literal_eval(tuples[named.id])))
            elif node.func.id == "patched" and isinstance(named, ast.Constant):
                patched.append((owner, named.value))
    return paths, methods, patched


def test_every_name_the_benchmark_reaches_resolves():
    paths, methods, patched = _references()
    # the benchmark counts, so a reader that found nothing is broken
    assert ("count_triangles",) in paths and methods and patched
    missing = [".".join(path) for path in sorted(paths) if _resolve(path) is None]
    # aggregated() reads each method from the class's own __dict__
    missing += [f"{'.'.join(owner)}.{name}" for owner, names in methods
                for name in names if name not in getattr(_resolve(owner), "__dict__", {})]
    missing += [f"{'.'.join(owner)}.{name}" for owner, name in patched
                if not hasattr(_resolve(owner), name)]
    assert missing == []
