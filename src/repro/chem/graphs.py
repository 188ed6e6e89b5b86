"""Exact graph primitives behind every molecule graph query.

These dependency-free routines are the only implementation of the graph
queries in :mod:`repro.chem`: the :class:`~repro.chem.molecule.Molecule`
methods (``connected_components``, ``is_connected``, ``ring_bonds``,
``rings``) delegate here, and the batched pipeline in
:mod:`repro.chem.batch` calls them directly, computing each quantity
**once** per molecule and sharing it across every scorer.

Exactness contract: these functions return the *same values* as the
networkx formulation they replaced, which ``tests/chem/test_graph_oracle.py``
keeps as a test-only oracle —

* :func:`connected_components` returns the same family of atom sets in the
  same order (by first-seen, i.e. lowest, atom index) as
  ``nx.connected_components``;
* :func:`bridges` returns the same edge set as ``nx.bridges``;
* :func:`ring_bonds` builds its set with a comprehension over the bond
  dict, so the set's element insertion order — and therefore its
  *iteration order*, which ring perception's tie-breaking observes — is
  fixed by the bond dict alone;
* :func:`rings` takes ``ring_bonds``/component count as arguments, so the
  batched path can pass cached values and get the same cycles.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .molecule import Molecule

__all__ = [
    "connected_components",
    "bridges",
    "ring_bonds",
    "rings",
]


def connected_components(mol: Molecule) -> list[set[int]]:
    """Connected atom sets by graph search, ordered by lowest atom index."""
    adjacency = mol._adjacency
    seen = [False] * mol.num_atoms
    out: list[set[int]] = []
    for start in range(mol.num_atoms):
        if seen[start]:
            continue
        seen[start] = True
        component = {start}
        stack = [start]
        while stack:
            for nbr in adjacency[stack.pop()]:
                if not seen[nbr]:
                    seen[nbr] = True
                    component.add(nbr)
                    stack.append(nbr)
        out.append(component)
    return out


def bridges(mol: Molecule) -> set[tuple[int, int]]:
    """All bridge edges as ``(min, max)`` tuples (iterative Tarjan DFS).

    An edge is a bridge iff no back-edge spans it; equality with
    ``nx.bridges`` follows because the bridge set of a graph is unique.
    Parallel edges cannot occur (``Molecule`` stores one order per pair).
    """
    n = mol.num_atoms
    adjacency = mol._adjacency
    disc = [-1] * n  # discovery times
    low = [0] * n
    out: set[tuple[int, int]] = set()
    time = 0
    for start in range(n):
        if disc[start] != -1:
            continue
        # Stack frames: (node, parent, iterator over neighbors).
        stack = [(start, -1, iter(adjacency[start]))]
        disc[start] = low[start] = time
        time += 1
        while stack:
            node, parent, neighbors = stack[-1]
            for nbr in neighbors:
                seen_at = disc[nbr]
                if seen_at == -1:  # tree edge: descend
                    disc[nbr] = low[nbr] = time
                    time += 1
                    stack.append((nbr, node, iter(adjacency[nbr])))
                    break
                if nbr != parent and seen_at < low[node]:  # back edge
                    low[node] = seen_at
            else:  # neighbors exhausted: retreat to the parent
                stack.pop()
                if stack:
                    up = stack[-1][0]
                    if low[node] < low[up]:
                        low[up] = low[node]
                    if low[node] > disc[up]:
                        out.add((up, node) if up < node else (node, up))
    return out


def ring_bonds(mol: Molecule, bridge_set: set[tuple[int, int]] | None = None
               ) -> set[tuple[int, int]]:
    """Bonds on at least one cycle: the molecule's bonds minus its bridges.

    An edge lies on a cycle iff it is not a bridge.  The set is built by a
    comprehension over the bond dict, so its iteration order — which ring
    perception's candidate ordering depends on — is fixed by the bonds'
    insertion order.
    """
    if bridge_set is None:
        bridge_set = bridges(mol)
    return {key for key in mol._bonds if key not in bridge_set}


def rings(
    mol: Molecule,
    ring_bond_set: set[tuple[int, int]],
    n_components: int,
) -> list[list[int]]:
    """SSSR-like ring perception (stand-in for RDKit's GetSSSR).

    For every ring bond, find the smallest ring through it (BFS between its
    endpoints with the bond removed), then greedily keep the shortest rings
    that are linearly independent over GF(2) of the edge space, up to the
    cyclomatic number.  This matches ``nx.minimum_cycle_basis`` on molecular
    graphs but is ~50x faster, which matters because dataset generation
    rings thousands of molecules.  ``ring_bond_set`` and ``n_components``
    are the molecule's :func:`ring_bonds` and component count, passed in so
    callers holding them cached do not recompute them.
    """
    target = mol.num_bonds - mol.num_atoms + n_components
    if target <= 0:
        return []
    candidates: dict[frozenset, list[int]] = {}
    for u, v in ring_bond_set:
        path = _shortest_path_avoiding_edge(mol, u, v)
        if path is None:  # pragma: no cover - ring bonds always close
            continue
        edges = frozenset(
            (min(a, b), max(a, b)) for a, b in zip(path, path[1:] + path[:1])
        )
        if edges not in candidates:
            candidates[edges] = path
    ordered = sorted(candidates.values(), key=len)
    edge_index = {key: i for i, key in enumerate(mol._bonds)}
    pivots: dict[int, int] = {}
    chosen: list[list[int]] = []
    for cycle in ordered:
        vec = 0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            vec |= 1 << edge_index[(min(a, b), max(a, b))]
        while vec:
            high = vec.bit_length() - 1
            if high not in pivots:
                pivots[high] = vec
                chosen.append(cycle)
                break
            vec ^= pivots[high]
        if len(chosen) == target:
            break
    return chosen


def _shortest_path_avoiding_edge(mol: Molecule, u: int, v: int
                                 ) -> list[int] | None:
    """Shortest path from u to v not using the direct (u, v) bond."""
    adjacency = mol._adjacency
    prev: dict[int, int | None] = {u: None}
    queue = deque([u])
    while queue:
        node = queue.popleft()
        if node == v:
            break
        for nbr in adjacency[node]:
            if {node, nbr} == {u, v}:
                continue
            if nbr not in prev:
                prev[nbr] = node
                queue.append(nbr)
    if v not in prev:
        return None
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path
