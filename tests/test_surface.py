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
