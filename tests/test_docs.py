"""Names in the docs: every backquoted reference to an ``invnoise``
module (``module.name``, ``module.Class.attr`` or ``invnoise.module``,
with or without the package prefix, as in :func:`~invnoise.rng.uniform_values`)
in the package's docstrings and in README.md names something that
exists, so no doc keeps the name of a deleted or renamed function.
Names in the code: every module-level name of the package has a caller
in the package or in ``perfbench/``."""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invnoise"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
REFERENCE = re.compile(r"`~?(invnoise(?:\.\w+)+|(?:%s)(?:\.\w+)+)" % "|".join(MODULES))
FILE_SUFFIXES = {"bin", "csv", "ini", "json", "md", "py", "toml", "txt"}


def references(text: str) -> list[str]:
    """The dotted names of the module references in ``text``, without
    the package prefix; file names such as ``demo.ini`` are not names."""
    names = [m.removeprefix("invnoise.") for m in REFERENCE.findall(text)]
    return [n for n in names if n.rsplit(".", 1)[-1] not in FILE_SUFFIXES]


def resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    if module not in MODULES:
        return False
    obj = importlib.import_module(f"invnoise.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def docstrings(path: pathlib.Path):
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, nodes) and (doc := ast.get_docstring(node, clean=False)):
            yield doc


def documented_references():
    """(file, name) of every module reference in the package docstrings
    and README.md."""
    texts = [(p.name, d) for p in sorted(PACKAGE.glob("*.py")) for d in docstrings(p)]
    texts.append(("README.md", (ROOT / "README.md").read_text()))
    return [(where, name) for where, text in texts for name in references(text)]


def test_scanner():
    """The forms it reads, the file names it skips, and a stale name."""
    text = (
        "``_blocks.for_row_blocks``, :func:`~invnoise.rng.uniform_values`, "
        "`invnoise.codec`, `configs/demo.ini`, `demo.ini`, ``np.add``, "
        "``_blocks.deleted_helper``"
    )
    names = references(text)
    assert names == ["_blocks.for_row_blocks", "rng.uniform_values", "codec",
                     "_blocks.deleted_helper"]
    assert [resolves(n) for n in names] == [True, True, True, False]


def test_every_reference_resolves():
    found = documented_references()
    assert len(found) >= 40
    assert [ref for ref in found if not resolves(ref[1])] == []


# Names no program loads yet: the package version, and the KS distance,
# which the per-scale run record of ROADMAP aim 4 is to report
# (``gumbel_cdf`` is loaded by it).
UNCALLED = {("__init__", "__version__"), ("gumbel", "ks_statistic")}


def module_level_names(tree: ast.Module):
    """(name, definition) of every function, class and constant that
    ``tree`` defines at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_name_has_a_caller_outside_the_tests():
    """Every module-level function, class and constant of the package is
    loaded (as a name or an attribute of that name) somewhere in the
    package or in ``perfbench/`` outside its own definition, so no code
    is kept for the tests alone."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    trees.update((p, ast.parse(p.read_text())) for p in sorted((ROOT / "perfbench").rglob("*.py")))
    defined = [(p.stem, name, node) for p, tree in trees.items() if p.parent == PACKAGE
               for name, node in module_level_names(tree)]
    inside = {(name, id(n)) for _, name, node in defined for n in ast.walk(node)}
    loaded = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                name = n.id
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                name = n.attr
            else:
                continue
            if (name, id(n)) not in inside:
                loaded.add(name)
    assert len(defined) > 100
    uncalled = {(module, name) for module, name, _ in defined if name not in loaded}
    assert uncalled == UNCALLED
