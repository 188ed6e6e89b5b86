"""Differential suite: the graph routines against a networkx oracle.

:mod:`repro.chem.graphs` is the only implementation of the molecule graph
queries, so the batched/scalar equivalence suite no longer compares
anything against an independent implementation.  This file keeps the
networkx formulation the routines replaced — component search,
``nx.bridges``-based ring bonds, and a copy of the networkx-era
``sanitize_lenient`` — as a test-only oracle, and checks plain ``==``
(including iteration order where downstream code observes it) over seeded
random molecules: empty, single-atom, disconnected, fused and bridged ring
systems, macrocycles, random graphs, and decodes of random 32x32 matrices.
"""

import numpy as np
import pytest

nx = pytest.importorskip("networkx")

from repro.chem import (  # noqa: E402
    AROMATIC,
    Molecule,
    crippen_logp,
    default_fragment_table,
    element,
    qed,
    random_molecules,
    sa_score,
    sanitize_lenient,
)
from repro.chem import graphs  # noqa: E402
from repro.chem.batch import MoleculeBatch  # noqa: E402
from repro.chem.matrix import MAX_ATOM_CODE  # noqa: E402

SYMBOLS = ["C", "C", "C", "N", "O", "S"]
ORDERS = [1.0, 1.0, 2.0, 3.0, AROMATIC, AROMATIC]


# ----------------------------------------------------------------------
# The oracle: the networkx-backed implementation graphs.py replaced.
# ----------------------------------------------------------------------
def nx_components(mol):
    return [set(c) for c in nx.connected_components(mol.to_networkx())]


def nx_bridges(mol):
    return {(min(a, b), max(a, b)) for a, b in nx.bridges(mol.to_networkx())}


def nx_ring_bonds(mol):
    bridges = nx_bridges(mol)
    return {key for key in mol._bonds if key not in bridges}


class NxMolecule(Molecule):
    """A molecule whose graph queries go through networkx.

    ``rings``/``is_connected`` are inherited and call these overrides, which
    is how the networkx-era ``Molecule`` computed them.
    """

    connected_components = nx_components
    ring_bonds = nx_ring_bonds


def as_nx(mol):
    """A read-only networkx-backed view sharing ``mol``'s containers.

    Sharing (not copying) the adjacency sets keeps their iteration order,
    which ring perception's BFS tie-breaking observes.
    """
    out = NxMolecule()
    out.symbols, out._bonds, out._adjacency = (
        mol.symbols, mol._bonds, mol._adjacency
    )
    return out


def oracle_sanitize(mol):
    """The networkx-era ``sanitize_lenient``, verbatim but for the queries."""
    if mol.num_atoms == 0:
        return Molecule()
    work = mol.copy()
    _oracle_demote(work)
    changed = True
    while changed:
        changed = False
        for index in range(work.num_atoms):
            max_valence = element(work.symbols[index]).max_valence
            while work.valence_used(index) > max_valence + 1e-9:
                _oracle_shed(work, index)
                changed = True
        if changed:
            _oracle_demote(work)
    components = nx_components(work)
    if components:
        best = max(components, key=lambda atoms: (len(atoms), -min(atoms)))
        fragment = work.subgraph(best)
    else:
        fragment = Molecule()
    _oracle_demote(fragment)
    return fragment


def _oracle_demote(mol):
    ring_bonds = nx_ring_bonds(mol)
    for i, j, order in list(mol.bonds()):
        if order == AROMATIC and (i, j) not in ring_bonds:
            mol.set_bond_order(i, j, 1.0)


def _oracle_shed(mol, index):
    incident = sorted(
        ((mol.bond_order(index, nbr), nbr) for nbr in mol.neighbors(index)),
        key=lambda pair: (-pair[0], -pair[1]),
    )
    order, neighbor = incident[0]
    if order > 1.0 and order != AROMATIC:
        mol.set_bond_order(index, neighbor, order - 1.0)
    elif order == AROMATIC:
        mol.set_bond_order(index, neighbor, 1.0)
    else:
        mol.remove_bond(index, neighbor)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def build(rng, n_atoms, edges):
    """Random symbols and orders; bonds inserted in a shuffled order, since
    ring-bond iteration order follows bond insertion order."""
    edges = list(dict.fromkeys((min(e), max(e)) for e in edges))
    edges = [edges[k] for k in rng.permutation(len(edges))]
    mol = Molecule()
    for _ in range(n_atoms):
        mol.add_atom(SYMBOLS[rng.integers(len(SYMBOLS))])
    for i, j in edges:
        mol.add_bond(int(i), int(j), ORDERS[rng.integers(len(ORDERS))])
    return mol


def cycle(atoms):
    return [(a, b) for a, b in zip(atoms, atoms[1:] + atoms[:1])]


def structured_molecules(rng):
    """Fixed topologies with random labels and bond insertion order."""
    shapes = {
        "single atom": (1, []),
        "isolated atoms": (4, []),
        "naphthalene": (10, cycle(list(range(6))) + cycle([4, 5, 6, 7, 8, 9])),
        "anthracene": (14, cycle(list(range(6))) + cycle([4, 5, 6, 7, 8, 9])
                       + cycle([8, 9, 10, 11, 12, 13])),
        "norbornane": (7, cycle([0, 1, 2, 3, 4, 5]) + [(0, 6), (3, 6)]),
        "adamantane": (10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                            (1, 6), (6, 7), (7, 3), (5, 8), (8, 9), (9, 7)]),
        "cubane": (8, cycle([0, 1, 2, 3]) + cycle([4, 5, 6, 7])
                   + [(0, 4), (1, 5), (2, 6), (3, 7)]),
        "spiro": (9, cycle([0, 1, 2, 3, 4]) + cycle([4, 5, 6, 7, 8])),
        "macrocycle": (24, cycle(list(range(24)))),
        "bridged macrocycle": (30, cycle(list(range(30)))
                               + [(0, 15), (7, 22), (3, 26)]),
        "ring with tails": (10, cycle(list(range(5)))
                            + [(0, 5), (5, 6), (2, 7), (7, 8), (8, 9)]),
        "disconnected": (17, cycle(list(range(6))) + [(6, 7), (7, 8)]
                         + cycle(list(range(10, 16)))),
    }
    return [Molecule()] + [build(rng, n, edges) for n, edges in shapes.values()]


def random_graph_molecules(rng, count=40):
    """Erdos-Renyi graphs from sparse forests to dense ring clusters."""
    mols = []
    for _ in range(count):
        n = int(rng.integers(2, 28))
        p = float(rng.choice([0.05, 0.1, 0.2, 0.35]))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        mols.append(build(rng, n, edges))
    return mols


def matrix_decodes(rng, count=24, size=32):
    """Decodes of random 32x32 matrices, sparse to dense bond noise."""
    diag = rng.uniform(-1.0, MAX_ATOM_CODE + 0.5, size=(count, size))
    sigma = rng.choice([0.3, 0.6, 1.2], size=(count, 1, 1))
    matrices = rng.normal(0.0, 1.0, size=(count, size, size)) * sigma
    idx = np.arange(size)
    matrices[:, idx, idx] = diag
    return MoleculeBatch.from_matrices(matrices).molecules


def workload(seed):
    rng = np.random.default_rng(seed)
    return (structured_molecules(rng) + random_graph_molecules(rng)
            + random_molecules(20, seed) + matrix_decodes(rng))


SEEDS = [0, 1, 2]


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_workload_covers_the_claimed_shapes():
    mols = workload(0)
    assert any(m.num_atoms == 0 for m in mols)
    assert any(m.num_atoms == 1 for m in mols)
    assert any(len(nx_components(m)) > 1 and m.num_bonds for m in mols)
    # Fused/bridged: more ring bonds than any single ring could hold.
    assert any(len(nx.cycle_basis(m.to_networkx())) >= 3 for m in mols)
    assert any(max(map(len, m.rings()), default=0) >= 24 for m in mols)
    decodes = matrix_decodes(np.random.default_rng(0))
    assert any(m.num_atoms >= 20 and m.num_bonds > m.num_atoms for m in decodes)


@pytest.mark.parametrize("seed", SEEDS)
def test_bridges_match_networkx(seed):
    for mol in workload(seed):
        assert graphs.bridges(mol) == nx_bridges(mol)


@pytest.mark.parametrize("seed", SEEDS)
def test_components_match_networkx_in_order(seed):
    for mol in workload(seed):
        assert mol.connected_components() == nx_components(mol)
        assert mol.is_connected() == as_nx(mol).is_connected()


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_bonds_match_networkx_in_iteration_order(seed):
    for mol in workload(seed):
        assert list(mol.ring_bonds()) == list(nx_ring_bonds(mol))


@pytest.mark.parametrize("seed", SEEDS)
def test_rings_match_networkx_inputs(seed):
    for mol in workload(seed):
        assert mol.rings() == as_nx(mol).rings()


@pytest.mark.parametrize("seed", SEEDS)
def test_sanitize_matches_networkx_oracle(seed):
    for mol in workload(seed):
        got, want = sanitize_lenient(mol), oracle_sanitize(mol)
        assert got.symbols == want.symbols
        assert list(got.bonds()) == list(want.bonds())  # order too
        assert got == want


def test_scores_of_repaired_decodes_match_networkx_oracle():
    table = default_fragment_table()
    decodes = matrix_decodes(np.random.default_rng(7), count=12)
    for mol in decodes:
        fixed = sanitize_lenient(mol)
        if fixed.num_atoms == 0:
            continue
        ref = as_nx(oracle_sanitize(mol))
        assert qed(fixed) == qed(ref)
        assert crippen_logp(fixed) == crippen_logp(ref)
        assert sa_score(fixed, table) == sa_score(ref, table)
