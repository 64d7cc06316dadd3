"""The toolkit's exception classes, read from the source: one per way a caller reacts.

A new class that no caller tells apart would spread the decision over modules again;
these checks keep every class in ``errors.py`` and every raise on one of them.
"""

import ast
import builtins
from pathlib import Path

import tasklimits

PACKAGE = Path(tasklimits.__file__).parent
CLASSES = {
    "TaskLimitsError",
    "ValidationError",
    "ScenarioError",
    "FormulaSyntaxError",
    "ResourceLimitError",
}
#: ``report._text`` raises the ``TypeError`` that ``json`` raises for a value it cannot write;
#: argparse turns ``ArgumentTypeError`` into a usage error.
OTHER_RAISES = {"TypeError", "argparse.ArgumentTypeError"}


def _modules() -> dict[str, ast.Module]:
    return {
        path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def _is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def test_only_errors_py_defines_exception_classes_and_exactly_five():
    classes = [
        (module, node)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    found: dict[str, str] = {}  # exception class name -> module
    grew = True
    while grew:  # a base may be defined after its subclass is seen
        grew = False
        for module, node in classes:
            bases = {ast.unparse(base) for base in node.bases}
            is_exception = any(_is_builtin_exception(b) or b in found for b in bases)
            if is_exception and node.name not in found:
                found[node.name] = module
                grew = True
    assert found == dict.fromkeys(CLASSES, "errors.py")


def test_every_raise_names_one_of_the_five():
    raised = {
        (module, node.lineno, ast.unparse(getattr(node.exc, "func", node.exc)))
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    assert raised
    assert {entry for entry in raised if entry[2] not in CLASSES | OTHER_RAISES} == set()
