"""The public surface: every public function and class of the package is
reached from the command line, or is named here as library-only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "locturan"

# Public names that no subcommand reaches but that stay as library API.
LIBRARY_ONLY = frozenset({
    # graph constructors, for building examples and test corpora
    "complete_graph", "path_graph", "cycle_graph", "star_graph",
    "disjoint_union", "join_graphs", "permute_graph",
    # structure queries; the commands ask these through component masks
    "connected_components", "cut_vertices", "cut_edges_and_2ec_pieces",
    # canonical forms as bytes, and the writer of the weighted-graph format
    "canonical_form", "write_weighted_graph",
    # per-edge and per-clique forms of statistics that the commands compute
    # as profiles
    "longest_path_through_edge", "longest_cycle_through_edge",
    "longest_vpath_through_edge", "max_weight_path_through_edge",
    "weighted_path_ratios", "max_matching", "max_star_over_clique",
    # subgraph and factor-criticality queries; ge reads both from one
    # matching table
    "induced_subgraph", "is_factor_critical",
})


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _surface() -> tuple[set[str], set[str]]:
    """The public def/class names, and the names reached by bare-name
    references from main, the cmd_* functions and module-level assignments."""
    defs: dict[str, list[ast.AST]] = {}
    roots: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                if node.name == "main" or node.name.startswith("cmd_"):
                    roots.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                roots |= _names(node.value)
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo.extend(_names(node))
    return {name for name in defs if not name.startswith("_")}, reached


def test_every_public_name_is_reached_or_library_only():
    public, reached = _surface()
    assert sorted(public - reached - LIBRARY_ONLY) == []
    # the allow-list names only what exists and is not reached
    assert sorted(LIBRARY_ONLY - public) == []
    assert sorted(LIBRARY_ONLY & reached) == []


def test_package_modules_reach_no_private_names():
    """No module of the package takes an underscore name from a sibling,
    either by `from .mod import _name` or as `mod._name` on an imported
    sibling module."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("locturan")
            ):
                offenders += [f"{path.name}:{node.lineno}: {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
                if node.module in (None, "locturan"):
                    modules |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                modules |= {alias.asname for alias in node.names
                            if alias.name.startswith("locturan.") and alias.asname}
        offenders += [
            f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.startswith("_")
        ]
    assert offenders == []


MEMOS = {"lru_cache", "cached_property"}


def test_every_memo_says_what_reads_it():
    """Each lru_cache and cached_property under src/ has a comment, on its
    decorator line or the line above, naming what reads the cached value:
    a cache that no reader can be named for does not pay for itself."""
    bare = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            for dec in getattr(node, "decorator_list", ()):
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "attr", getattr(target, "id", None)) in MEMOS:
                    line, above = lines[dec.lineno - 1], lines[dec.lineno - 2]
                    if "#" not in line and not above.lstrip().startswith("#"):
                        bare.append(f"{path.name}:{dec.lineno}: {node.name}")
    assert bare == []
