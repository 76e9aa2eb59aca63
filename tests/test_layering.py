"""The oracle must stay an independent check: it may share the config
types with the engine but none of the computational machinery.  The
package must stand without the test suite: nothing in it imports the
cross-check route or any other test module."""

import ast
import os
import subprocess
import sys

import duosc.oracle

ALLOWED_INTERNAL = {"duosc.config", "duosc.errors"}


def test_oracle_imports_no_engine_modules():
    src_path = duosc.oracle.__file__
    tree = ast.parse(open(src_path).read())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level > 0:  # relative import inside the package
                mod = "duosc." + mod
            if mod.startswith("duosc") and mod not in ALLOWED_INTERNAL:
                offenders.append(mod)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("duosc") \
                        and alias.name not in ALLOWED_INTERNAL:
                    offenders.append(alias.name)
    assert not offenders, f"oracle depends on engine modules: {offenders}"


def test_package_public_api():
    import duosc
    for name in duosc.__all__:
        assert hasattr(duosc, name), name


def _imported_modules(path):
    """Absolute names of the modules a source file imports."""
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            yield "duosc" if node.level else node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_package_imports_no_test_modules():
    root = os.path.dirname(duosc.__file__)
    tests = os.path.dirname(os.path.abspath(__file__))
    test_names = {"tests"} | {
        os.path.splitext(name)[0] for name in os.listdir(tests)}
    offenders = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            for mod in _imported_modules(os.path.join(root, name)):
                if mod.split(".")[0] in test_names:
                    offenders.append(f"{name}: {mod}")
    assert "crosscheck" in test_names
    assert not offenders, f"the package imports test modules: {offenders}"


def test_import_loads_no_scipy():
    """A fresh interpreter that imports the package and its CLI loads no
    scipy module and not the oracle: only `oracle` imports scipy, and only
    `duosc run --verify` loads it."""
    src = os.path.dirname(os.path.dirname(duosc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, duosc, duosc.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'\n"
            "             or m == 'duosc.oracle'))")
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
