"""Source hygiene: every imported name in the package and the tests is used,
every definition and every class field is read, the solver reads the
u-metric in _cerami only, and no CLI run loads scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path):
    """(line, name) of each name an import binds that nothing in the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # __init__.py imports names to re-export them, so it is not scanned
    package = ROOT / "src" / "logchoquard"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    found = [
        "%s:%d %s" % (p.relative_to(ROOT), line, name)
        for p in paths
        for line, name in unused_imports(p)
    ]
    assert not found, "unused imports: " + ", ".join(found)


def definitions(tree: ast.Module):
    """Module-level functions, classes and constants of a module: name -> its node."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    found[target.id] = node
    return found


def reads(tree: ast.AST, skip: ast.AST = None, bare: bool = True):
    """Names read in tree outside skip: loaded attributes, bare identifier
    strings (the benchmark tracer looks its layers up by name) and, with
    bare, loaded names."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if bare:
                out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def package_trees():
    """The package's modules (__init__.py aside) and the parsed trees of
    those modules, the tests and the benchmark: everything that reads it."""
    package = ROOT / "src" / "logchoquard"
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    readers = modules + sorted((ROOT / "tests").glob("*.py"))
    readers += sorted((ROOT / "perfbench").glob("*.py"))
    return modules, {p: ast.parse(p.read_text(), filename=str(p)) for p in readers}


def test_no_unreferenced_definitions():
    # a definition counts as used when the package (re-exports in
    # __init__.py aside), the tests or the benchmark read it somewhere
    # other than inside its own definition
    modules, trees = package_trees()
    elsewhere = {p: reads(tree) for p, tree in trees.items()}
    unread = []
    for path in modules:
        for name, node in definitions(trees[path]).items():
            others = any(name in names for p, names in elsewhere.items() if p != path)
            if not others and name not in reads(trees[path], skip=node):
                unread.append("%s %s" % (path.relative_to(ROOT), name))
    assert not unread, "definitions read nowhere: " + ", ".join(unread)


def test_no_unread_class_fields():
    # an annotated field of a package class counts as read when an attribute
    # or an identifier string names it outside its own class body; bare
    # names do not count, since fields share their names with locals
    modules, trees = package_trees()
    unread = []
    for path in modules:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            seen = set()
            for p, tree in trees.items():
                seen |= reads(tree, skip=cls if p == path else None, bare=False)
            unread += [
                "%s %s.%s" % (path.relative_to(ROOT), cls.name, stmt.target.id)
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and stmt.target.id not in seen
            ]
    assert not unread, "class fields read nowhere: " + ", ".join(unread)


# the descent reads the u-metric (barycenter, context, solve and norm) in
# one function, so a change of the Cerami certificate changes that body alone
METRIC_NAMES = {"barycenter_beta", "metric_context_at", "solve_metric_system", "norm_u"}


def test_solver_reads_the_metric_in_cerami_only():
    path = ROOT / "src" / "logchoquard" / "solver.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    cerami = definitions(tree)["_cerami"]
    assert METRIC_NAMES <= reads(cerami)
    outside = METRIC_NAMES & reads(tree, skip=cerami)
    assert not outside, "solver.py reads outside _cerami: " + ", ".join(sorted(outside))


# importing scipy costs start-up time and resident memory on every CLI call,
# and the package computes everything with numpy
NO_SCIPY_PROBE = """
import json, os, sys
import logchoquard.cli as cli
out = sys.argv[1]
config = os.path.join(out, "rot.cfg")
with open(config, "w") as fh:
    fh.write("box = 3\\nsymmetry = rot-zeta:2\\nmax_iters = 5\\n")
# the capped rot-zeta solve (exit 3) rescales its start bumps with T_t
runs = (["solve", "--config", config], ["ground-state"], ["multistart", "--k", "1"])
codes = [cli.main(args + ["--out", os.path.join(out, str(i))]) for i, args in enumerate(runs)]
assert codes == [3, 0, 0], codes
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_runs_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert not loaded, "loaded " + ", ".join(loaded)
