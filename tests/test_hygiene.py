"""Source hygiene checks on the package modules and the test files."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rankgraph"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import (top level or local) that the module
    never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names in string annotations such as -> "CayleyTable"
    for node in ast.walk(tree):
        for ann in (getattr(node, "returns", None),
                    getattr(node, "annotation", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value))
                             if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nfrom typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> \"Sequence\":\n    return 'os'\n")
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


# ``import rankgraph.cli`` loads what every command needs: numpy, but
# not the process pool that only ``sweep --jobs N`` uses, nor the
# ``fractions`` (and ``decimal``) that only the ``delu`` suite uses.
DEFERRED_IMPORTS = ("multiprocessing", "concurrent.futures.process",
                    "fractions", "decimal")


def test_cli_import_defers_the_pool_and_fractions():
    # a fresh interpreter: this one has imported everything already
    script = ("import sys\n"
              f"sys.path.insert(0, {str(SRC.parent)!r})\n"
              "import rankgraph.cli\n"
              f"for name in {DEFERRED_IMPORTS + ('numpy',)!r}:\n"
              "    print(name, name in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    loaded = dict(line.split() for line in done.stdout.splitlines())
    assert loaded == {**{name: "False" for name in DEFERRED_IMPORTS},
                      "numpy": "True"}


# The package's layers, lowest first: a module may import only from
# lower layers.  ``from . import __version__`` is allowed everywhere.
LAYERS = [("config",), ("perm_core",), ("group_structure",),
          ("graphs", "automorphisms"), ("crown_powers",),
          ("catalog",), ("sweep", "verify"), ("cli",)]
LAYER = {module: k for k, layer in enumerate(LAYERS) for module in layer}


def upward_imports(module: str, source: str) -> list:
    """(line, target) for each package-relative import, lazy ones
    included, of a module in the same layer as ``module`` or a higher one."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        if node.module:
            targets = [node.module.split(".")[0]]
        else:
            targets = [a.name for a in node.names if a.name != "__version__"]
        out.extend((node.lineno, t) for t in targets
                   if LAYER[t] >= LAYER[module])
    return sorted(out)


def test_layer_scanner_flags_upward_import():
    source = ("from . import __version__\nfrom .perm_core import Permutation\n"
              "def f():\n    from .sweep import sweep\n"
              "    from . import automorphisms\n")
    assert upward_imports("graphs", source) == [(4, "sweep"),
                                                (5, "automorphisms")]


def test_every_module_has_a_layer():
    assert sorted(LAYER) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_follow_layer_order(path):
    assert upward_imports(path.stem, path.read_text()) == [], path.name


# Resource caps are one process-wide value, ``config.LIMITS``: no function
# takes them as a parameter, every check site reads them through the
# module (a name bound by ``from .config import LIMITS`` would not see
# ``caps()``), and every cap is checked somewhere.


def cap_violations(source: str) -> list:
    """(line, what) for each ``limits`` parameter and each binding of the
    name ``LIMITS`` in a module other than config."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            out.extend((node.lineno, "limits parameter") for p in params
                       if p.arg == "limits")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((node.lineno, "binds LIMITS") for alias in node.names
                       if "LIMITS" in (alias.name, alias.asname))
        elif isinstance(node, ast.Name) and node.id == "LIMITS" and \
                not isinstance(node.ctx, ast.Load):
            out.append((node.lineno, "binds LIMITS"))
        elif isinstance(node, ast.Global) and "LIMITS" in node.names:
            out.append((node.lineno, "binds LIMITS"))
    return sorted(out)


def caps_read(source: str) -> set:
    """Fields read as ``LIMITS.<field>``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and
            ((isinstance(node.value, ast.Name) and node.value.id == "LIMITS")
             or (isinstance(node.value, ast.Attribute) and
                 node.value.attr == "LIMITS"))}


def test_cap_scanner_flags_parameter_and_binding():
    source = ("from .config import LIMITS\n"
              "def f(G, limits=None):\n    return config.LIMITS.max_elements\n"
              "g = lambda *, limits: 0\n")
    assert cap_violations(source) == [(1, "binds LIMITS"),
                                      (2, "limits parameter"),
                                      (4, "limits parameter")]
    assert caps_read(source) == {"max_elements"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                       if p.stem != "config"),
                         ids=lambda p: p.name)
def test_caps_are_read_through_config(path):
    assert cap_violations(path.read_text()) == [], path.name


def test_every_cap_is_checked():
    import dataclasses
    from rankgraph.config import Limits
    read = set().union(*(caps_read(p.read_text()) for p in MODULES))
    fields = {f.name for f in dataclasses.fields(Limits)}
    assert fields - read == set()
    assert read - fields == set()


# ``ClosureOracle`` checks the registry's closure kernel, so it must not
# call it: the oracle closes subgroups breadth first on its own.  The
# class-pair oracles check ``mask_dist`` against ``reference_dist``, so
# the oracles must not call it either.

ORACLES = Path(__file__).resolve().parent / "oracles.py"
KERNELS = ("close", "join_with_element", "mask_dist")


def kernel_calls(source: str) -> list:
    """(line, name) for each call of a method named like a
    ``SubgroupRegistry`` closure or distance kernel."""
    return sorted((node.lineno, node.func.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and
                  isinstance(node.func, ast.Attribute) and
                  node.func.attr in KERNELS)


def test_kernel_scanner_flags_registry_closure():
    source = ("def f(reg, sid, z):\n    a = reg.close(sid, z)\n"
              "    b = reg.bfs_close((z,))\n"
              "    c = reg.mask_dist(a) + reference_dist(reg, b)\n"
              "    return getattr(reg, 'x').join_with_element(a, c)\n")
    assert kernel_calls(source) == [(2, "close"), (4, "mask_dist"),
                                    (5, "join_with_element")]


def test_oracles_do_not_call_the_closure_kernel():
    assert kernel_calls(ORACLES.read_text()) == []


# ``oracles.cln_pair_witnesses`` is the reference for
# ``crown_powers.cln_witness``, so the oracles never reach the kernel.

def name_uses(source: str, name: str) -> list:
    """Lines that import ``name`` or read it, bare or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(alias.name.split(".")[-1] == name
                      for alias in node.names)
        else:
            hit = (isinstance(node, ast.Name) and node.id == name) or \
                (isinstance(node, ast.Attribute) and node.attr == name)
        if hit:
            out.append(node.lineno)
    return sorted(out)


def test_name_scanner_flags_imports_and_calls():
    source = ("from rankgraph.crown_powers import (\n    cln_witness)\n"
              "import rankgraph.crown_powers.cln_witness\n"
              "def f(G, cp):\n"
              "    '''cln_witness in a docstring is no use'''\n"
              "    x = cp.cln_witness(G, [0])\n"
              "    return cln_witness(G, [1]), x\n")
    assert name_uses(source, "cln_witness") == [1, 3, 6, 7]


def test_oracles_do_not_use_the_cln_kernel():
    assert name_uses(ORACLES.read_text(), "cln_witness") == []


# ``oracles.crown_edge`` and ``pairwise_weak_connectivity`` are the
# references for the crown-graph builder: they build their corrections
# from ``socle_indices``, complete edges by ``ClosureOracle`` and check
# rows by their own loop, so they read none of the builder's internals.

CROWN_INTERNALS = ("_completes", "_exhaustive_report", "corrections",
                   "digits")


@pytest.mark.parametrize("name", CROWN_INTERNALS)
def test_oracles_do_not_use_the_crown_builder_internals(name):
    assert name_uses(ORACLES.read_text(), name) == []


# ``oracles.pairwise_columns_generate`` is the reference for
# ``crown_powers.columns_generate``.

def test_oracles_do_not_use_the_witness_certificate():
    assert name_uses(ORACLES.read_text(), "columns_generate") == []


# ``oracles.brute_cyclic_classes`` is the reference for
# ``group_structure.cyclic_classes``.

def test_oracles_do_not_use_the_cyclic_class_labels():
    assert name_uses(ORACLES.read_text(), "cyclic_classes") == []


# ``np.unique`` imports ``numpy.ma`` on its first call (numpy 2.4, about
# 10 ms a process), so the package finds distinct values by a sort and a
# "differs from the previous value" flag, a presence mask or, for coset
# labels, the labels that label themselves.


def numpy_unique_uses(source: str) -> list:
    """Lines that read a ``unique*`` function off ``np`` or ``numpy`` or
    import one from numpy."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr.startswith("unique") and \
                isinstance(node.value, ast.Name) and \
                node.value.id in ("np", "numpy")
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numpy" and \
                any(a.name.startswith("unique") for a in node.names)
        else:
            hit = False
        if hit:
            out.append(node.lineno)
    return sorted(out)


def test_unique_scanner_flags_numpy_unique():
    source = ("import numpy as np\nfrom numpy import unique_inverse\n"
              "def f(x, unique):\n"
              "    '''np.unique in a docstring is no use'''\n"
              "    a = np.unique(x, return_inverse=True)\n"
              "    return numpy.unique_values(a), unique(a), x.unique\n")
    assert numpy_unique_uses(source) == [2, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_unique(path):
    assert numpy_unique_uses(path.read_text()) == [], path.name


# Incidence masks are Python ints.  ``group_structure.class_block`` is the
# one function that lays them out as uint64 words to AND them in numpy;
# other code ANDs them as ints or calls it.

def mask_word_layouts(source: str) -> list:
    """(where, line) for each uint64 dtype in ``source`` (a string such
    as ``"<u8"`` or ``"uint64"``, or a ``uint64`` name or attribute) and
    each def of or reference to a ``mask_words`` helper.  ``where`` is
    the outermost def around the line (``Class.method`` for a method),
    else the class, else ``<module>``."""
    import re
    dtype = re.compile(r"[<>=|]?(u8|uint64)")
    helper = re.compile(r"mask_?words?", re.IGNORECASE)
    out = []

    def visit(node, where):
        """``where`` is None at module level, and ends in "." in a class
        body outside its methods."""
        name = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
            if where is None or where.endswith("."):
                where = (where or "") + node.name
        elif isinstance(node, ast.ClassDef):
            name = node.name
            if where is None or where.endswith("."):
                where = (where or "") + node.name + "."
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and (dtype.fullmatch(name) or
                                 helper.search(name)):
            out.append(((where or "<module>").rstrip("."), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return sorted(set(out), key=lambda hit: (hit[1], hit[0]))


def test_word_scanner_flags_uint64_layouts():
    source = (
        "import numpy as np\n"
        "W = np.dtype('>u8')\n"
        "def class_block(left, right):\n"
        "    '''ANDs the masks as uint64 words, dtype \"<u8\"'''\n"
        "    def words(masks):\n"
        "        return np.array(masks, dtype='<u8')\n"
        "    return words(left) & words(right)\n"
        "def _mask_words(masks):\n"
        "    return masks\n"
        "class R:\n"
        "    u8 = 'u8'\n"
        "    def tuples(self, rows, words):\n"
        "        a = np.asarray(rows, dtype=np.uint64)\n"
        "        return a.astype(uint64), _mask_words(rows), words\n")
    assert mask_word_layouts(source) == [
        ("<module>", 2), ("class_block", 6), ("_mask_words", 8),
        ("R", 11), ("R.tuples", 13), ("R.tuples", 14)]


def test_only_class_block_lays_masks_out_as_words():
    layouts = {p.stem: mask_word_layouts(p.read_text()) for p in MODULES}
    assert {(module, where) for module, hits in layouts.items()
            for where, _ in hits} == {("group_structure", "class_block")}


# Aut(L) and X are index arrays, never permutation groups: the
# automorphisms module builds no group from its maps.

AUTOMORPHISMS = SRC / "automorphisms.py"
GROUP_BUILDERS = ("subgroup_from_members", "PermutationGroup")


def group_builder_calls(source: str) -> list:
    """(line, name) for each call of a group builder, by bare name or
    as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in GROUP_BUILDERS:
                out.append((node.lineno, name))
    return sorted(out)


def test_group_builder_scanner_flags_calls():
    source = ("from .perm_core import PermutationGroup\n"
              "def f(L: PermutationGroup, rows):\n"
              "    G = perm_core.subgroup_from_members(5, rows)\n"
              "    return PermutationGroup(5, G.generators)\n")
    assert group_builder_calls(source) == [(3, "subgroup_from_members"),
                                           (4, "PermutationGroup")]


def test_automorphisms_build_no_permutation_group():
    assert group_builder_calls(AUTOMORPHISMS.read_text()) == []


# Per-table state hangs off a Cayley table only where ``perm_core`` builds
# the table.  The table's one ``SubgroupRegistry`` is kept on the group
# (``registry_for``), and what any other layer caches per table belongs
# to that registry.

TABLE_STORES_ALLOWED = set()


def table_attribute_stores(source: str) -> list:
    """(line, enclosing function, attribute) for each attribute of a
    name ``ct`` assigned, by a store or by ``setattr``."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.value, ast.Name) and node.value.id == "ct":
            out.append((node.lineno, func, node.attr))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "setattr" and node.args and \
                isinstance(node.args[0], ast.Name) and \
                node.args[0].id == "ct":
            name = node.args[1] if len(node.args) > 1 else None
            out.append((node.lineno, func,
                        name.value if isinstance(name, ast.Constant)
                        else None))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(out, key=lambda s: s[0])


def test_table_store_scanner_flags_assignments():
    source = ("def f(G, table):\n    ct = G.cayley_table()\n"
              "    ct._cache = 1\n    ct.n += 0\n"
              "    setattr(ct, 'x', 2)\n    table.y = ct.n\n"
              "    def g():\n        ct.z = 3\n    return ct._cache\n"
              "ct.w = 4\n")
    assert table_attribute_stores(source) == [
        (3, "f", "_cache"), (4, "f", "n"), (5, "f", "x"), (8, "g", "z"),
        (10, None, "w")]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.stem != "perm_core"],
                         ids=lambda p: p.name)
def test_only_the_registry_hangs_off_the_table(path):
    assert [(line, func, attr) for line, func, attr
            in table_attribute_stores(path.read_text())
            if (path.stem, func, attr) not in TABLE_STORES_ALLOWED] == [], \
        path.name


# Lazily built attributes: every ``cached_property``, every instance
# field that ``__init__`` sets to None (or to a parameter whose default is
# None) and other code fills, and every dataclass field defaulting to
# None that a method of its class fills.  Everything else is built at
# construction; each entry here says why it is not.

LAZY_ALLOWED = {
    ("catalog", "CatalogEntry", "_group"):
        "the permutation group, built from the generators on first use; "
        "writing an entry out (to_dict) never reads it",
    ("crown_powers", "MonolithicGroup", "aut"):
        "the Aut(L) search, which direct-path crown graphs, cln, delu "
        "and unico-rank never read",
    ("crown_powers", "MonolithicGroup", "x_group"): "read off aut",
    ("crown_powers", "MonolithicGroup", "element_orbit_labels"):
        "read off x_group",
    ("crown_powers", "CrownPower", "generators"): "grows with k",
    ("crown_powers", "OrbitTable", "positions"): "|Omega| t cells",
    ("crown_powers", "OrbitTable", "label_grid"): "|N|^t cells",
    ("crown_powers", "CrownGraphBuilder", "digits"):
        "the vertex cap is checked before it is built",
    ("group_structure", "SubgroupRegistry", "_lattice"):
        "the subgroup classes and maximal subgroups; closures, joins "
        "and square_order do without them",
    ("group_structure", "SubgroupRegistry", "_rows"):
        "the incidence rows, read off the maximal subgroups",
    ("group_structure", "SubgroupRegistry", "_row_classes"):
        "read off the incidence rows",
    ("group_structure", "SubgroupRegistry", "_avoid"):
        "read off the row classes, for mask_dist only",
    ("group_structure", "SubgroupRegistry", "_class_dists"):
        "a row-class by row-class matrix, for Delta_d with d >= 3 only",
    ("perm_core", "_Level", "visible"):
        "reset when a generator is added, rebuilt on the next read",
    ("perm_core", "PermutationGroup", "_elements"):
        "the element list, under the enumeration cap",
    ("perm_core", "PermutationGroup", "_cayley"):
        "the dense table, under the dense-order cap",
    ("perm_core", "PermutationGroup", "_registry"):
        "filled by group_structure.registry_for, a layer above perm_core",
}


def lazy_attributes(sources: dict) -> list:
    """(module, class, attribute) for each ``cached_property``, each
    field that a class's ``__init__`` sets to None, or to a parameter
    defaulting to None, and that another method of the class, or a store
    on an object other than ``self`` in any of ``sources`` (module name
    -> text), sets to something else, and each field of a ``dataclass``
    that defaults to None (``= None`` or ``field(default=None)``) and
    that a method of its class sets on ``self`` to something else; a
    dataclass field that only other code sets is a record's field.
    Other objects' fields match by spelling."""

    def stores(node):
        """(target, value) of each assignment to an attribute in node."""
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and \
                    stmt.value is not None:
                for target in getattr(stmt, "targets", None) or \
                        [stmt.target]:
                    if isinstance(target, ast.Attribute):
                        yield target, stmt.value

    def on_self(target):
        return isinstance(target.value, ast.Name) and target.value.id == "self"

    def is_none(value, names=()):
        return (isinstance(value, ast.Constant) and value.value is None) or \
            (isinstance(value, ast.Name) and value.id in names)

    def defaults_to_none(value):
        """``None``, or a ``field(...)`` call with ``default=None``."""
        if isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Name) and value.func.id == "field":
            return any(k.arg == "default" and is_none(k.value)
                       for k in value.keywords)
        return is_none(value)

    def is_dataclass(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        return isinstance(decorator, ast.Name) and decorator.id == "dataclass"

    out = set()
    none_fields = []  # (module, class, attribute, other methods' fills)
    foreign_fills = set()  # attributes filled on objects other than self
    for module, source in sources.items():
        tree = ast.parse(source)
        foreign_fills |= {target.attr for target, value in stores(tree)
                          if not on_self(target) and not is_none(value)}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = [node for node in cls.body
                       if isinstance(node, ast.FunctionDef)]
            out |= {(module, cls.name, node.name) for node in methods
                    if any(isinstance(d, ast.Name)
                           and d.id == "cached_property"
                           for d in node.decorator_list)}
            filled = {target.attr for node in methods
                      if node.name != "__init__"
                      for target, value in stores(node)
                      if on_self(target) and not is_none(value)}
            if any(map(is_dataclass, cls.decorator_list)):
                out |= {(module, cls.name, stmt.target.id)
                        for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and defaults_to_none(stmt.value)
                        and stmt.target.id in filled}
            for node in methods:
                if node.name != "__init__":
                    continue
                args = node.args.args[len(node.args.args)
                                      - len(node.args.defaults):]
                none_params = {a.arg for a, d in zip(args, node.args.defaults)
                               if is_none(d)}
                none_fields.extend(
                    (module, cls.name, target.attr, filled)
                    for target, value in stores(node)
                    if on_self(target) and is_none(value, none_params))
    out |= {(module, cls, attr) for module, cls, attr, filled in none_fields
            if attr in filled or attr in foreign_fills}
    return sorted(out)


def test_lazy_scanner_flags_cached_properties_and_filled_fields():
    sources = {"a": (
        "class A:\n"
        "    def __init__(self, x=None, y=1):\n"
        "        self.memo = None\n"
        "        self.given: int = x\n"
        "        self.plain = None\n"
        "        self.fixed = y\n"
        "    @cached_property\n"
        "    def later(self):\n"
        "        return 1\n"
        "    def fill(self):\n"
        "        self.memo = 2\n"
        "        self.plain = None\n"
        "        self.fixed = 3\n"
        "class B:\n"
        "    def fill(self):\n"
        "        self.plain = 5\n"
        "@dataclass(frozen=False)\n"
        "class C:\n"
        "    cache: int = field(default=None, repr=False)\n"
        "    memo: int = None\n"
        "    given: int = None\n"
        "    count: int = 0\n"
        "    plain: int = field(default_factory=list)\n"
        "    def fill(self):\n"
        "        self.cache = 1\n"
        "        self.memo = 2\n"
        "        self.count = 3\n"
        "        self.plain = 4\n"
        "class D:\n"
        "    memo: int = None\n"
        "    def fill(self):\n"
        "        self.memo = 2\n"),
        "b": "def g(obj):\n    obj.given = 4\n"}
    assert lazy_attributes(sources) == [
        ("a", "A", "given"), ("a", "A", "later"), ("a", "A", "memo"),
        ("a", "C", "cache"), ("a", "C", "memo")]


def test_every_lazy_attribute_is_listed_with_its_reason():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert lazy_attributes(sources) == sorted(LAZY_ALLOWED)
    assert all(LAZY_ALLOWED.values())


def test_monolithic_group_builds_its_socle_data_at_construction():
    from rankgraph.catalog import alternating
    from rankgraph.crown_powers import MonolithicGroup
    mono = MonolithicGroup(alternating(5).group())
    fields = vars(mono)
    for name in ("socle", "socle_abelian", "socle_indices", "coset_labels",
                 "socle_mask", "socle_positions", "socle_bfs_order"):
        assert name in fields, name
    for name in ("aut", "x_group", "element_orbit_labels"):
        assert name not in fields, name


# Library code that only tests call belongs in ``tests/oracles.py``: every
# public module-level function or class of the package is referenced by
# some package file other than through its own definition.  Names match
# by spelling, so the scan can miss such code but never flags used code.


def unreferenced_definitions(sources: dict) -> list:
    """(module, name) for each public module-level def or class that no
    source in ``sources`` (module name -> text) references outside its
    own definition; ``__init__`` imports count as references."""
    refs = []  # (module, line, name)
    defs = []  # (module, first line, last line, name)
    for module, source in sources.items():
        tree = ast.parse(source)
        defs.extend((module, node.lineno, node.end_lineno, node.name)
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                         ast.AsyncFunctionDef))
                    and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((module, node.lineno, a.name) for a in node.names)
    return sorted((module, name) for module, first, last, name in defs
                  if not any(r_name == name and
                             (r_mod != module or not first <= line <= last)
                             for r_mod, line, r_name in refs))


def test_test_only_scanner_flags_unreferenced_definition():
    sources = {
        "__init__": "from .a import exported\n",
        "a": ("def exported():\n    pass\n\n"
              "def used():\n    return helper()\n\n"
              "def helper():\n    return 1\n\n"
              "def lonely():\n    return lonely()\n\n"
              "class _Private:\n    pass\n"),
        "b": ("from . import a\n\ndef main():\n    return a.used()\n\n"
              "if __name__ == '__main__':\n    main()\n"),
    }
    assert unreferenced_definitions(sources) == [("a", "lonely")]


def test_no_test_only_library_code():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_definitions(sources) == []


# The benchmark's tracer wraps named entry points of the package.  A
# target that no longer resolves is reported as absent and its metrics
# read 0, so every target must exist.  The tracer is read, not imported.

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# Removed from the package but still traced; their replacement in the
# benchmark is ROADMAP item 2.
KNOWN_STALE = {("rankgraph.group_structure", "SubgroupRegistry.dist_to_full"),
               ("rankgraph.crown_powers", "crown_generates")}


def trace_targets(source: str) -> list:
    """(module, attribute path) of each entry of the ``TARGETS`` list."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    return []


def test_trace_targets_exist():
    import importlib
    targets = trace_targets(TRACER.read_text())
    assert targets, "no TARGETS list in the tracer"
    missing = set()
    for module, path in targets:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.add((module, path))
    assert missing - KNOWN_STALE == set()


# ``CayleyTable.indices`` is the one conversion from permutations to
# element indices: no other module reads the table's ``index`` dict.


def index_lookups(source: str) -> list:
    """Lines that subscript an attribute named ``index`` or call ``get``
    on one, as in ``ct.index[p.images]`` and ``ct.index.get(key)``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            owner = node.value
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "get":
            owner = node.func.value
        else:
            continue
        if isinstance(owner, ast.Attribute) and owner.attr == "index":
            out.append(node.lineno)
    return sorted(out)


def test_index_scanner_flags_table_lookups():
    source = ("def f(ct, p, index, row):\n"
              "    '''ct.index[p.images] in a docstring is no use'''\n"
              "    a = ct.index[p.images]\n"
              "    b = self.ct.index.get(p.images)\n"
              "    c = index[p.images], row.index(3), ct.indices([p])\n"
              "    return [ct.index[\n        q.images] for q in a]\n")
    assert index_lookups(source) == [3, 4, 6]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.stem != "perm_core"],
                         ids=lambda p: p.name)
def test_permutations_become_indices_only_in_perm_core(path):
    assert index_lookups(path.read_text()) == [], path.name
