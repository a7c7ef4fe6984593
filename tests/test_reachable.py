"""Code with no caller is deleted: every top-level function, class and
assigned name in src/spinestat is named by other code there, exported by the
package, or allow-listed below with the reason it stays.  And the tests'
references stay independent of the package's internals."""

import ast
from pathlib import Path

import pytest

import spinestat

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spinestat"

# (module, name): why it stays without a caller in src/.
ALLOWED = {
    ("asymptotics", "substitution_check"):
        "no caller until `verify` checks the limits (ROADMAP item 2)",
}


def uncalled_definitions(sources, exported):
    """(module, name) of each top-level function, class or assigned name in
    `sources`, a dict of module name to source text, that no code in them
    loads by name or attribute outside the definition itself, and that is
    neither in `exported` nor a __dunder__ name, which the interpreter reads.
    An import alone is not a use."""
    defined, used = [], set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            own = set()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {sub.id for target in targets for sub in ast.walk(target)
                       if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
            defined.extend((module, name) for name in sorted(own))
            loads = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    loads.add(sub.id)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    loads.add(sub.attr)
            used |= loads - own
    return [(module, name) for module, name in defined
            if name not in used and name not in exported
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_in_src_has_a_caller():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    exported = set(spinestat.__all__)
    # Equal, not a subset: an entry whose name gained a caller is dropped.
    assert sorted(uncalled_definitions(sources, exported)) == sorted(ALLOWED)


def test_a_planted_uncalled_function_is_flagged():
    # b uses a and comes before it: a use counts in any module order.
    planted = {
        "b": "from . import a\nfrom .a import orphan\n\nprint(a.used(), a.Hook, a.TABLE)\n",
        "a": ("def used():\n    return used()\n\n"
              "def orphan():\n    return used()\n\n"
              "class Hook:\n    pass\n\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n\n"
              # A table left behind reads its entries but has no reader itself.
              "TABLE = {'used': used}\nUNREAD = {'orphan': lambda: UNREAD}\n"
              "__version__ = '0'\n"),
    }
    assert uncalled_definitions(planted, exported=set()) == [("a", "orphan"), ("a", "UNREAD")]
    assert uncalled_definitions(planted, exported={"orphan", "UNREAD"}) == []


def private_loads(text):
    """The `_`-prefixed, non-dunder names of spinestat modules that `text`
    loads: imported from one, or read as an attribute of a name that an
    import from spinestat bound."""
    tree = ast.parse(text)
    bound, found = set(), []

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] == "spinestat"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinestat":
            found += [f"{node.module}.{alias.name}" for alias in node.names if private(alias.name)]
            bound |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("reference", ["treeref.py", "remy.py"])
def test_references_load_no_private_name(reference):
    # A reference that reuses the package's internals would check them
    # against themselves.
    assert private_loads((TESTS / reference).read_text()) == []


def test_a_planted_private_load_is_flagged():
    planted = (
        "import spinestat.stats\nimport random as _random\n"
        "from spinestat import trees\nfrom spinestat.trees import DEFAULT_CAP, _levels\n"
        "from spinestat.errors import CapExceeded as Cap\n"
        "trees._code_block, spinestat.stats._make\n"
        "trees.__file__, trees.code_levels, Cap._x, _random._inst, other._private\n"
    )
    assert private_loads(planted) == [
        "spinestat.trees._levels", "trees._code_block", "spinestat.stats._make", "Cap._x"]
    assert private_loads("from spinestat import trees\nprint(trees.code_levels)\n") == []


def test_the_fault_replay_loads_nothing_of_the_check():
    # spinestat._fault names the first fault of a level that checks.bijection
    # fails; evidence that reused the check's own tables and rounds would
    # check them against themselves.  Its relative imports are read as
    # imports from spinestat.
    text = (PACKAGE / "_fault.py").read_text()
    tree = ast.parse(text)
    imported = [f"{getattr(node, 'module', '') or ''}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert not any("checks" in name.split(".") for name in imported)
    assert private_loads(text.replace("from . import", "from spinestat import")) == []
