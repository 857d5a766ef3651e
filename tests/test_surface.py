"""Every function and class of the package has a caller in the program.

A definition under ``src/semspeech`` must be referenced from ``src/``,
``perfbench/`` or ``tools/`` outside its own body, so code that only tests
reach does not stay in the package. A reference is a name, an attribute, an
imported name, or a string constant equal to the name (the benchmark names
the entry points it traces as strings). A method is reached only through an
attribute, an import or a string, so a bare local of the same name does not
count for it. Dunder methods are called by Python itself and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semspeech"
PROGRAM = [ROOT / "src", ROOT / "perfbench", ROOT / "tools"]

# (module, name) -> why it may stay with no caller in the program
ALLOWED = {
    ("corpus", "ground_truth_similarity"): (
        "the scalar oracle of pair scores that tests compare build_scored_pairs against"
    ),
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.AST, bare_names: bool = True) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and bare_names:
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


def _program_trees():
    for top in PROGRAM:
        for path in sorted(top.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreferenced() -> list[tuple[str, str]]:
    trees = list(_program_trees())
    total = {
        bare: sum((_references(tree, bare) for _, tree in trees), Counter())
        for bare in (True, False)
    }
    missing = []
    for path, tree in trees:
        if PACKAGE not in path.parents:
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        methods = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, DEFINITIONS)
        }
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or node.name.startswith("__"):
                continue
            bare = id(node) not in methods
            if total[bare][node.name] - _references(node, bare)[node.name] == 0:
                missing.append((module, node.name))
    return missing


def test_every_definition_has_a_caller_in_the_program():
    missing = [d for d in unreferenced() if d not in ALLOWED]
    assert not missing, f"defined but reached only from tests, if at all: {missing}"


def test_every_allowed_definition_still_exists_without_a_caller():
    # an entry whose definition is gone or has gained a caller is stale
    assert sorted(ALLOWED) == sorted(d for d in unreferenced() if d in ALLOWED)


STEP_CALLS = {"zero_grad", "backward", "adamw_step"}


def test_only_the_fit_loop_takes_optimizer_steps():
    # a trainer hands fit a batch loss; the step policy lives in training.py alone
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "training.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in STEP_CALLS:
                    found.append((path.name, node.lineno, name))
            named = next(
                (getattr(node, f) for f in ("id", "attr", "name") if hasattr(node, f)), None
            )
            if named == "optimizer_step":
                found.append((path.name, getattr(node, "lineno", 0), named))
    assert not found, f"optimizer steps taken outside training.py: {found}"
