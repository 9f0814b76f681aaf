"""Every ``backflow_lab`` name that the benchmark harness under
``perfbench/`` imports resolves, so a change that removes or renames one
fails here rather than inside a benchmark child.  The harness files are
only parsed, never run."""

import ast
import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def package_imports():
    """(file, module, name) of each ``backflow_lab`` import in
    ``perfbench/*.py``; ``name`` is None for ``import backflow_lab.x``."""
    found = []
    for fname in sorted(f for f in os.listdir(PERFBENCH) if f.endswith(".py")):
        with open(os.path.join(PERFBENCH, fname)) as handle:
            tree = ast.parse(handle.read(), fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "backflow_lab":
                found += [(fname, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(fname, a.name, None) for a in node.names if a.name.split(".")[0] == "backflow_lab"]
    return found


def resolves(module: str, name: str | None) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(owner, name):
        return True
    try:  # a submodule, as in ``from backflow_lab import cli``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_perfbench_import_resolves():
    imports = package_imports()
    assert {fname for fname, _, _ in imports} >= {"child.py", "oracles.py"}
    missing = [entry for entry in imports if not resolves(entry[1], entry[2])]
    assert missing == []


def model_attribute_reads():
    """(file, model name, params, attribute) for each ``x.<attr>`` read in
    ``perfbench/*.py`` where ``x = build_model("<name>", {literal})``."""
    found = []
    for fname in sorted(f for f in os.listdir(PERFBENCH) if f.endswith(".py")):
        with open(os.path.join(PERFBENCH, fname)) as handle:
            tree = ast.parse(handle.read(), fname)
        built = {}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", getattr(node.value.func, "attr", None)) == "build_model"
            ):
                name, params = (ast.literal_eval(arg) for arg in node.value.args)
                built.setdefault(node.targets[0].id, []).append((name, params))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in built:
                found += [(fname, name, params, node.attr) for name, params in built[node.value.id]]
    return found


def test_every_model_attribute_perfbench_reads_is_set():
    """A model field the harness reads (``kernel.trajectory_fn``,
    ``dephasing.propagator_fn``, ...) is not None on the model built the
    same way, so removing one fails here rather than in a traced run."""
    from backflow_lab import build_model

    reads = model_attribute_reads()
    assert ("child.py", "classical_exp_kernel", {"n": 2, "gamma": 1.0, "tau_m": 0.5}, "trajectory_fn") in reads
    unset = [entry for entry in reads if getattr(build_model(entry[1], entry[2]), entry[3], None) is None]
    assert unset == []
