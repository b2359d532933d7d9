"""Every name a module of src/hsmoney or tests imports is used in that module,
every function, class and module-level constant or alias src/hsmoney defines
is referenced somewhere, only an allowlist of them is referenced by tests
alone, the modules keep their layers, and starting the program imports no
scipy.

Stdlib `ast` checks, so they run without a linter installed. Names inside
string constants count as used, which covers quoted annotations.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hsmoney"
PERFBENCH = TESTS.parent / "perfbench"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "from typing import List, Tuple\nimport numpy as np\nx: 'List[int]' = np.zeros(1)\n"
    assert unused_imports(source) == ["Tuple (line 1)"]


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _definitions(tree: ast.Module):
    """(name, line) of every function and class, and of every name a
    module-level assignment binds (constants and aliases)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, name.lineno


def unreferenced_definitions(defining: dict, referencing: list) -> list:
    """Definitions of the `defining` sources ({label: source}; see
    `_definitions`) whose name appears in none of the `referencing` sources
    as a name that is read, an attribute, or a part of a dotted-identifier
    string constant (the tracer binds some methods by name with `getattr`).
    Binding a name is not a reference to it. Dunder names are used
    implicitly and do not count."""
    used = set()
    for source in referencing:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                    used.update(node.value.split("."))
    return sorted(
        f"{label}: {name} (line {line})"
        for label, source in defining.items()
        for name, line in _definitions(ast.parse(source))
        if name not in used and not re.fullmatch(r"__\w+__", name)
    )


def test_the_check_finds_an_unreferenced_definition():
    defining = {"mod": "class A:\n    def __init__(self): pass\n    def used(self): pass\n    def orphan(self): pass\n"
                       "def bound(): pass\n"
                       "CAP = 1\nALIAS, KEPT = A, 2\n__all__ = ['A']\n"}
    referencing = ["A().used()", "getattr(mod, 'pkg.bound')", "CAP = 3\nprint(mod.KEPT)"]
    assert unreferenced_definitions(defining, referencing) == [
        "mod: ALIAS (line 7)", "mod: CAP (line 6)", "mod: orphan (line 4)"]


def test_every_definition_in_src_is_referenced():
    defining = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    referencing = [path.read_text() for root in (SRC, TESTS, PERFBENCH) for path in sorted(root.rglob("*.py"))]
    assert unreferenced_definitions(defining, referencing) == []


# The definitions in src that no program path reaches: nothing in src or in
# the benchmark driver names them, only tests. Each stays for the reason
# given; a new test-only definition, or an entry that src starts to use or
# deletes, fails the census below.
TEST_ONLY = {
    # paper constructs
    "hsmini.randomize_instance": "the random-invertible-map reduction from one hidden subspace to a uniform one",
    "hsmini.undo_state": "the inverse of that reduction",
    "polyhide.soundness_experiment": "the counterfeiting game that defines the explicit scheme's soundness",
    "money.count_notes": "the money counter: one count per note that verifies",
    "money.WrappedAsMini": "a full money scheme is itself a mini-scheme",
    "money.note_to_wire": "the banknote record a holder hands a verifier",
    "money.note_from_wire": "reads that record back",
    "search.count_near_lattice": "the lattice-point count that the counting bound (L/beta + 1)(2 eta + 1) limits",
    "privkey.random_guess_per_qubit_exact": "the exact per-qubit acceptance, 1/2, of a random Wiesner guess",
    "advlab.HaarPairRelation": "the inner-product adversary's relation on Haar states",
    "advlab.JunkEmitter": "the counterfeiter every verifier must reject",
    # reference evaluators that tests compare the batched paths against
    "polyhide.eval": "one polynomial at one point, the reference for its truth table",
    "polyhide.truth_table": "one polynomial's truth table, the reference for rows moved through a linear map",
    "polyhide.sample_vanishing": "one vanishing polynomial, whose draws tests pin to the dense reference sampler",
    "polyhide.zset_membership": "the standard Z-set rule at one point",
    "polyhide.zset_membership_variant": "the high-noise Z-set rule at one point",
    # GF(2) primitives and the counter that tests state paper facts with
    "f2lin.dot": "the F_2 inner product that defines the dual subspace",
    "f2lin.identity": "the identity map of the LinMap identities",
    "f2lin.intersection_dim": "the overlap <A|B> = 2^(dim(A & B) - n/2)",
    "hsmini.subspace_queries": "the T-query count in which the paper states the cost",
}


def test_only_the_allowlisted_definitions_in_src_are_test_only():
    defining = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    # perfbench/tests is not a program path, so only the driver's own modules count
    referencing = [path.read_text() for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))]
    found = {re.sub(r"\.py: (\w+) \(line \d+\)", r".\1", entry)
             for entry in unreferenced_definitions(defining, referencing)}
    assert found == set(TEST_ONLY)


def package_imports(source: str) -> set:
    """The package modules a source imports relatively: `from . import a` and `from .a import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module else (a.name for a in node.names))
    return found


def test_the_check_finds_package_imports():
    source = "from . import a, b\nfrom .c import d\nimport e\nfrom f import g\nfrom __future__ import annotations\n"
    assert package_imports(source) == {"a", "b", "c"}


# The schemes and the machinery under them know nothing of the adversary lab,
# the catalog or the command line; the lab knows nothing of the last two.
LAYERS = {
    **{module: {"advlab", "experiments", "cli"}
       for module in ("config", "f2lin", "qsim", "search", "money", "hsmini", "polyhide", "privkey")},
    "advlab": {"experiments", "cli"},
}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_modules_import_nothing_from_the_layers_above(module):
    assert package_imports((SRC / f"{module}.py").read_text()) & LAYERS[module] == set()


def test_startup_imports_no_scipy():
    # scipy.optimize alone took about 0.5 s of each process start
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    probe = "import sys, hsmoney.cli, hsmoney.experiments; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
