"""Guard against test-only code in the package.

Every public top-level function and class in ``qweather`` should be used by
some other code in the package (or by the CLI through it).  The few that
only tests and the benchmark call are listed here by name, so a new one
has to be added in plain sight.
"""

import ast
import pathlib

import qweather

# module.name of the public definitions no other package code references
KEPT_FOR_TESTS = {
    # parameter counts the acceptance criteria pin
    "models_recurrent.qgru_param_count",
    "models_recurrent.qlstm_param_count",
    # the trained-model codec, which only tests call until runs save models
    "bench.model_from_json",
    "bench.model_to_json",
    # the one-machine solve on a precomputed kernel: criterion 04 and the SMO
    # unit tests pin it, and rows cannot express their hand-made kernels
    "qkernel.svm_decision",
    "qkernel.svm_train",
}


def unreferenced_public_definitions(package_dir):
    """module.name of each public top-level def or class that no other code
    of the package uses.

    A use is code, not a comment or string: a relative import of the name,
    a bare name in its own module outside its own definition, or an
    attribute of a module imported as ``from . import module``.
    """
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(pathlib.Path(package_dir).glob("*.py"))
    }
    defined = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    used = set()
    for module, tree in trees.items():
        modules = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        used.add(f"{node.module}.{alias.name}")
        for node in tree.body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id != own:
                    used.add(f"{module}.{sub.id}")
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in modules
                ):
                    used.add(f"{modules[sub.value.id]}.{sub.attr}")
    return defined - used


def test_only_listed_definitions_are_unused_by_the_package():
    package_dir = pathlib.Path(qweather.__file__).parent
    assert unreferenced_public_definitions(package_dir) == KEPT_FOR_TESTS


def test_finder_counts_code_not_comments_or_same_named_attributes(tmp_path):
    (tmp_path / "a.py").write_text(
        "def orphan(x):\n"
        "    # shadowed() is named only in this comment\n"
        "    return orphan(x.shadowed)\n\n\n"
        "def shadowed():\n    pass\n\n\n"
        "def used():\n    pass\n\n\n"
        "def via_module():\n    pass\n\n\n"
        "class ViaImport:\n    pass\n\n\n"
        "def _helper():\n    return used()\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import ViaImport\n\n\n"
        "def _private(obj):\n    return obj.shadowed, a.via_module, ViaImport\n"
    )
    assert unreferenced_public_definitions(tmp_path) == {"a.orphan", "a.shadowed"}
