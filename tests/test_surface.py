"""Static checks on the package surface, made with the standard library's ast.

Every public name, every module-level function and class, private ones
included, and every method, classmethod, staticmethod and property of a
class (dunders aside) is used by the pipeline, the CLI or the benchmark
(names only the tests need live under tests/), no module imports a
name it never uses, the only functools memos are the ones named here, and
only `poly` defines the coefficient-dict kernels.
"""

import ast
from pathlib import Path

import pytest

import starobs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starobs"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_in_annotation(node: ast.AST | None) -> set[str]:
    """Names an annotation mentions, inside string annotations too."""
    out: set[str] = set()
    for sub in ast.walk(node) if node is not None else ():
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out |= _names_in_annotation(ast.parse(sub.value, mode="eval"))
    return out


def _used_names(tree: ast.AST, skip_definition: str | None = None) -> set[str]:
    """Names loaded, attributes read and names in annotations, outside the
    body of any function or class called `skip_definition`."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == skip_definition:
                continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.arg):
            out |= _names_in_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out |= _names_in_annotation(node.returns)
        elif isinstance(node, ast.AnnAssign):
            out |= _names_in_annotation(node.annotation)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = [_tree(p) for p in MODULES if p.name != "__init__.py"]
    trees += [_tree(p) for p in sorted((ROOT / "bench").glob("*.py"))]
    uncalled = sorted(
        name
        for name in starobs.__all__
        if not any(name in _used_names(tree, skip_definition=name) for tree in trees)
    )
    assert uncalled == []


def _uncalled(definitions) -> list[str]:
    """The qualified names of the (qualified name, name) definitions whose name
    no module of src/ or bench/ uses outside a definition of that name."""
    trees = [_tree(p) for p in MODULES]
    trees += [_tree(p) for p in sorted((ROOT / "bench").glob("*.py"))]
    return sorted(
        qualified
        for qualified, name in definitions
        if not any(name in _used_names(tree, skip_definition=name) for tree in trees)
    )


def test_every_module_level_definition_has_a_caller_outside_the_tests():
    definitions = [
        (f"{path.stem}.{node.name}", node.name)
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert _uncalled(definitions) == []


def test_every_class_member_has_a_caller_outside_the_tests():
    definitions = [
        (f"{path.stem}.{cls.name}.{node.name}", node.name)
        for path in MODULES
        for cls in ast.walk(_tree(path))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert _uncalled(definitions) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert unused == []


def _memoized(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether a functools.cache or lru_cache decorator, called or not, wraps node."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name in ("cache", "lru_cache"):
            return True
    return False


def test_the_only_memos_are_the_parser_and_the_leibniz_splittings():
    # a functools memo is state that outlives its call: each one is reviewed
    memoized = sorted(
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _memoized(node)
    )
    assert memoized == ["cli.build_parser", "polydiff._leibniz", "polydiff._split_over"]


KERNELS = ("_product", "_power", "_add_into", "_partial", "_int_partial", "_add_multiple",
           "_integers", "_ratio", "_multiplied", "_multiply", "_divided", "_divide")


def _bound_names(tree: ast.AST):
    """Names bound anywhere in tree by a def or by a plain assignment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_only_poly_defines_the_coefficient_kernels():
    # one loop per operation on {monomial: coefficient} dicts: a second definition,
    # under a kernel's name or a replaced one's, is a second copy to keep in step
    defined = sorted(
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _bound_names(_tree(path))
        if name in KERNELS
    )
    assert defined == [
        "poly._add_into", "poly._divided", "poly._integers", "poly._multiplied", "poly._partial",
        "poly._power", "poly._product", "poly._ratio",
    ]
