"""The library's surface, read with the standard library's `ast` (no lint
package is needed): what `src/bieberbach` defines is what the commands
and the benchmark run, the package exports exactly its public API, and
each record stores exactly its pinned fields (`STORED_FIELDS`).

A definition is a top-level function or class, or a function in a class
body (a method, property, class or static method; dunders aside).  It
counts as reached when its name appears in code, outside its own
definition, in a `src/bieberbach` module (the package `__init__` aside,
since it only re-exports) or in a `perfbench/*.py` file: as any name for
a top-level definition, and only as an attribute (`.name`) for a class
member, so a local variable of the same name does not reach it.
Docstrings and comments hold no names, so a mention there does not
count.  Attributes are matched without their class: a call to
`IntMatrix.identity` also counts as a use of a member `identity` of any
other class, so such a collision is found by reading, not by this lint.
"""

import ast
import dataclasses
import importlib
import types
from collections import Counter
from pathlib import Path

import bieberbach

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bieberbach"
ENTRY_POINTS = {("cli", "main")}
INTEGER_MODULES = ("linalg", "calabi", "finite", "catalog")  # no Fraction inside

PUBLIC_API = set(
    """
    IntMatrix SmithForm smith_normal_form integer_kernel determinant
    AffineGen CrystalGroup TorsionWitness CrystalError ClosureBudgetExceeded
    HolonomyNotFaithful build_group is_torsion_free torsion_witness
    AbelianInvariants FixedLattice FixedTorusSubgroup TooManyFixedPoints abelianization
    fixed_lattice fixed_torus character_count
    Character StabilizerRecord orbit_data
    FiniteGroup finite_group_from_holonomy all_subgroups is_primitive
    in_coprime_class structure_name
    GroupFileError document_to_group group_to_document load_group
    SurjectionToZ CalabiStep PolyZSeries ConnectivityReport NotTorsionFree surjection_to_Z
    calabi_kernel is_connective connectivity_document
    CatalogEntry ExpectedInvariants UnknownKey catalog_list catalog_get
    """.split()
)

# The fields each dataclass of `src/bieberbach` stores, by module.  A
# record stores no field its other fields determine (a derived value is
# a property), so a change here says what the new field holds that the
# others do not.  `AnalysisReport`, `ConnectivityReport` and `PolyZSeries`
# still hold derived values, which the benchmark's replica builds.
STORED_FIELDS = {
    "calabi.SurjectionToZ": ("lattice_map", "lift_values"),
    "calabi.CalabiStep": ("surjection", "basis", "kernel_group"),
    "calabi.PolyZSeries": ("steps",),
    "calabi.ConnectivityReport": ("connective", "certificate", "core", "chain"),
    "catalog.ExpectedInvariants": (
        "h1_rank", "h1_torsion", "torus_rank", "torus_components", "connective",
        "holonomy_order", "holonomy_id",
    ),
    "catalog.CatalogEntry": ("group", "expected"),
    "cli.AnalysisReport": (
        "group", "torsion_free", "h1_rank", "h1_torsion", "center_rank", "center_basis",
        "torus_rank", "torus_components", "torus_points", "characters", "holonomy_order",
        "holonomy_id", "holonomy_primitive", "coprime_class", "connectivity",
    ),
    "crystal.AffineGen": ("matrix", "shift", "denominator"),
    "crystal.TorsionWitness": ("element", "correction", "order"),
    "crystal.CrystalGroup": ("name", "generators", "elements", "edges", "edge_cocycle"),
    "finite.FiniteGroup": ("edges",),
    "invariants.AbelianInvariants": ("rank", "torsion"),
    "invariants.FixedLattice": ("basis",),
    "invariants.FixedTorusSubgroup": ("component_orders", "tangent_basis", "point_shifts"),
    "linalg.SmithForm": ("U", "V", "divisors"),
    "linalg.SmithColumns": ("V", "divisors"),
    "orbits.StabilizerRecord": ("shift", "denominator", "orbit_shifts", "stabilizer"),
}


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def source_modules() -> dict[str, ast.Module]:
    return {path.stem: parsed(path) for path in sorted(SRC.glob("*.py"))}


def names_in(nodes) -> Counter:
    """How often each identifier, attribute name and `from`-imported name
    appears in code."""
    out = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                out[sub.attr] += 1
            elif isinstance(sub, ast.ImportFrom):
                out.update(alias.name for alias in sub.names)
    return out


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parameters(args: ast.arguments) -> list[ast.arg]:
    return [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]


def bound_names(func) -> set[str]:
    """The names a function binds itself: its parameters and the names it
    assigns, less those it declares global or nonlocal.  What a nested
    function binds is that function's own."""
    bound, declared = {a.arg for a in parameters(func.args)}, set()
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return bound - declared


def names_read_in(nodes) -> Counter:
    """`names_in`, less each name read inside a function that binds that
    name itself (a parameter or a local).  A name a function reads but
    does not bind still counts, as do module-scope names, imported names
    and attributes.  A function's decorators, defaults and annotations
    are read where it is defined."""
    out = Counter()

    def visit(node, bound):
        if isinstance(node, FUNCTIONS):
            args = node.args
            outer = [*getattr(node, "decorator_list", ()), *args.defaults, *args.kw_defaults]
            outer += [getattr(node, "returns", None), *(a.annotation for a in parameters(args))]
            for part in filter(None, outer):
                visit(part, bound)
            inner = bound_names(node)
            for part in node.body if isinstance(node.body, list) else [node.body]:
                visit(part, inner)
            return
        if isinstance(node, ast.Name):
            out[node.id] += node.id not in bound
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    for node in nodes:
        visit(node, frozenset())
    return out


def attributes_in(nodes) -> Counter:
    """How often each attribute name (`.name`) appears in code."""
    return Counter(
        sub.attr for node in nodes for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    )


def top_level_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def definitions(tree: ast.Module):
    """(label, node) for each top-level definition, then for each
    non-dunder function in a class body, labelled `Class.name`."""
    for node in top_level_definitions(tree):
        yield node.name, node
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    yield f"{cls.name}.{node.name}", node


def unreached_definitions() -> list[str]:
    modules = source_modules()
    del modules["__init__"]
    perfbench = [parsed(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    trees = perfbench + list(modules.values())
    used = names_in(trees)
    used_attributes = attributes_in(trees)
    unreached = []
    for name, tree in modules.items():
        for label, node in definitions(tree):
            # a class member is reached only as an attribute; the name on a
            # def or class line is no name node, so the uses outside a
            # definition are the uses everywhere less those inside
            member = "." in label
            inside = (attributes_in if member else names_in)([node])[node.name]
            everywhere = (used_attributes if member else used)[node.name]
            if (name, label) not in ENTRY_POINTS and everywhere == inside:
                unreached.append(f"{name}.{label}")
    return unreached


def exported(tree: ast.Module) -> set[str]:
    """The strings of a literal `__all__`, if the module has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:  # not a literal list
                return set()
    return set()


def unused_imports() -> list[str]:
    unused = []
    for name, tree in source_modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{name}: {b}" for b in bound if b not in used]
    return unused


def test_every_definition_is_reached_by_the_program_or_the_benchmark():
    assert unreached_definitions() == []


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports() == []


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every module the tree imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_the_integer_modules_import_no_fractions():
    """Linear algebra, the Calabi peel and the finite groups run in
    integers: they import no `fractions` and name no `Fraction`, which
    enters at the boundary (group files, characters, the fixed torus's
    points and `AffineGen`'s constructor)."""
    modules = source_modules()
    for name in INTEGER_MODULES:
        assert "fractions" not in imported_modules(modules[name]), name
        assert "Fraction" not in names_in([modules[name]]), name


def test_the_calabi_peel_reads_no_cayley_graph():
    """A surjection is checked by reading each holonomy element once
    (phi(s) = f . t_s), so `calabi` names neither the Cayley graph's
    `edges` nor its `edge_cocycle`."""
    used = names_in([source_modules()["calabi"]])
    assert used["edges"] == used["edge_cocycle"] == 0


def test_only_the_calabi_chain_decides_torsion():
    """The chain is the one torsion test: it tests its stall stage, and
    `analyze` reads its verdict off the chain.  So no module but `crystal`,
    which defines them, and `calabi` names `torsion_witness` or
    `is_torsion_free`; the package `__init__` only re-exports them."""
    modules = source_modules()
    assert names_in([modules["calabi"]])["is_torsion_free"] > 0
    for name, tree in modules.items():
        if name not in ("crystal", "calabi", "__init__"):
            used = names_in([tree])
            assert used["torsion_witness"] == used["is_torsion_free"] == 0, name


def test_one_subgroup_closure_and_no_multiplication_table():
    """`FiniteGroup.subgroup` is the one subgroup closure, a walk of the
    Cayley graph: no module reads a `.table` attribute (the n x n table is
    the test oracle `oracles.mult_table`) or defines a function
    `_closure`, and the Calabi kernels (`calabi`), the torsion test
    (`crystal`) and the subgroup lattice (`finite`) call `.subgroup`."""
    modules = source_modules()
    for name, tree in modules.items():
        assert attributes_in([tree])["table"] == 0, name
        functions = {n.name for n in ast.walk(tree) if isinstance(n, FUNCTIONS[:2])}
        assert "_closure" not in functions, name
    for name in ("calabi", "crystal", "finite"):
        assert attributes_in([modules[name]])["subgroup"] > 0, name


def test_no_test_oracle_is_defined_or_named_in_the_library():
    """The slow predecessors live in `tests/oracles.py` only: no library
    module defines, imports or calls one (no Hermite form, no Smith
    solve, no subgroup-lattice splitting).  A parameter or local that
    shares an oracle's name is no call of it (`names_read_in`)."""
    oracles = {node.name for node in top_level_definitions(parsed(ROOT / "tests" / "oracles.py"))}
    assert "hermite_normal_form" in oracles and "solve_integer_linear" in oracles
    for name, tree in source_modules().items():
        defined = {node.name for node in top_level_definitions(tree)}
        assert not oracles & (defined | set(+names_read_in([tree]))), name


def test_the_oracle_lint_skips_only_the_names_a_function_binds_itself():
    tree = ast.parse(
        "from oracles import imported\n"
        "module_scope = 1\n"
        "def binds(parameter, *rest, keyword=default_read, **options):\n"
        "    local = parameter\n"
        "    for loop_target in rest:\n"
        "        local += loop_target\n"
        "    return local, free_read(options), keyword, module.attribute\n"
        "def outer():\n"
        "    closed_over = 1\n"
        "    def inner(parameter):\n"
        "        global declared\n"
        "        declared = parameter\n"
        "        return closed_over\n"
        "    return inner, (lambda lam: lam)\n"
    )
    read = names_read_in([tree])
    unread = ("parameter", "rest", "keyword", "options", "local", "loop_target", "lam")
    assert {name: read[name] for name in unread} == dict.fromkeys(unread, 0)
    # a read of a name the function does not bind, at any depth, still counts
    counted = ("imported", "module_scope", "default_read", "free_read", "attribute", "closed_over")
    assert {name: read[name] for name in counted} == dict.fromkeys(counted, 1)
    assert read["module"] == 1 and read["declared"] == 1 and read["inner"] == 1
    # names_in, the reach lint's count, still counts every bare name
    assert names_in([tree])["parameter"] == 2


def stored_fields() -> dict[str, tuple[str, ...]]:
    """`module.Class` -> the names of its `dataclasses.fields`, for each
    dataclass a `src/bieberbach` module defines."""
    out = {}
    for stem in source_modules():
        module = importlib.import_module(f"bieberbach.{stem}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                if obj.__module__ == module.__name__:
                    out[f"{stem}.{name}"] = tuple(f.name for f in dataclasses.fields(obj))
    return out


def test_every_record_stores_the_pinned_fields():
    assert stored_fields() == STORED_FIELDS


def test_the_package_exports_its_public_api_and_no_module():
    assert len(bieberbach.__all__) == len(set(bieberbach.__all__)) == 49
    assert set(bieberbach.__all__) == PUBLIC_API
    for name in bieberbach.__all__:
        assert not isinstance(getattr(bieberbach, name), types.ModuleType), name
    namespace = {}
    exec("from bieberbach import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_API
