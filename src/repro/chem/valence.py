"""Valence checking, sanitization, and validity repair.

Two entry points:

* :func:`check_valence` / :func:`is_valid` — strict sanitization in the
  spirit of RDKit's ``SanitizeMol``: valences within element maxima,
  aromatic bonds only inside rings, non-empty, connected.
* :func:`sanitize_lenient` — *validity correction*: repair a decoded matrix
  molecule by demoting non-ring aromatic bonds to single, shedding excess
  bonds at overloaded atoms, and keeping the largest connected fragment.
  Generated molecules from an undertrained model rarely pass strict
  sanitization, and the paper's companion work (Li et al., "Quantum
  generative models for small molecule drug discovery") scores samples
  after exactly this kind of correction; Table II is reproduced the same
  way.

Ring and fragment queries go through the :class:`Molecule` methods, which
delegate to the exact, dependency-free routines in :mod:`repro.chem.graphs`
(every decoded Table II sample is repaired, so these are on the hot path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .molecule import AROMATIC, Molecule
from .periodic import element

__all__ = [
    "ValenceReport",
    "check_valence",
    "is_valid",
    "largest_fragment",
    "sanitize_lenient",
]


@dataclass
class ValenceReport:
    """Outcome of strict sanitization."""

    ok: bool
    problems: list[str] = field(default_factory=list)


def check_valence(mol: Molecule) -> ValenceReport:
    """Strictly validate a molecule; returns every problem found."""
    problems: list[str] = []
    if mol.num_atoms == 0:
        problems.append("molecule has no atoms")
        return ValenceReport(False, problems)

    for index in range(mol.num_atoms):
        used = mol.valence_used(index)
        max_valence = element(mol.symbols[index]).max_valence
        if used > max_valence + 1e-9:
            problems.append(
                f"atom {index} ({mol.symbols[index]}) valence {used} "
                f"exceeds {max_valence}"
            )

    ring_bonds = mol.ring_bonds()
    for i, j, order in mol.bonds():
        if order == AROMATIC and (i, j) not in ring_bonds:
            problems.append(f"aromatic bond ({i}, {j}) outside any ring")

    if not mol.is_connected():
        problems.append(
            f"molecule has {len(mol.connected_components())} fragments"
        )
    return ValenceReport(not problems, problems)


def is_valid(mol: Molecule) -> bool:
    """True when the molecule passes strict sanitization."""
    return check_valence(mol).ok


def largest_fragment(mol: Molecule) -> Molecule:
    """Keep only the connected component with the most atoms (ties: lowest index)."""
    components = mol.connected_components()
    if not components:
        return Molecule()
    best = max(components, key=lambda atoms: (len(atoms), -min(atoms)))
    return mol.subgraph(best)


def sanitize_lenient(mol: Molecule) -> Molecule:
    """Repair a molecule into a strictly valid one (or an empty one).

    Steps, all deterministic:

    1. Demote aromatic bonds that are not in rings to single bonds.
    2. While any atom exceeds its maximum valence, demote its highest-order
       bond one step (3 -> 2 -> 1); if all its bonds are single, remove the
       bond to the highest-index neighbor.
    3. Re-demote any aromatic bonds newly outside rings (bond removal can
       break rings).
    4. Keep the largest connected fragment.
    """
    if mol.num_atoms == 0:
        return Molecule()
    work = mol.copy()

    _demote_nonring_aromatics(work)

    changed = True
    while changed:
        changed = False
        for index in range(work.num_atoms):
            max_valence = element(work.symbols[index]).max_valence
            while work.valence_used(index) > max_valence + 1e-9:
                _shed_one_bond(work, index)
                changed = True
        if changed:
            _demote_nonring_aromatics(work)

    fragment = largest_fragment(work)
    _demote_nonring_aromatics(fragment)
    return fragment


def _demote_nonring_aromatics(mol: Molecule) -> None:
    ring_bonds = mol.ring_bonds()
    for i, j, order in list(mol.bonds()):
        if order == AROMATIC and (i, j) not in ring_bonds:
            mol.set_bond_order(i, j, 1.0)


def _shed_one_bond(mol: Molecule, index: int) -> None:
    """Reduce valence pressure at one atom by one demotion or removal."""
    incident = sorted(
        ((mol.bond_order(index, nbr), nbr) for nbr in mol.neighbors(index)),
        key=lambda pair: (-pair[0], -pair[1]),
    )
    if not incident:  # pragma: no cover - cannot exceed valence with no bonds
        return
    order, neighbor = incident[0]
    if order > 1.0 and order != AROMATIC:
        mol.set_bond_order(index, neighbor, order - 1.0)
    elif order == AROMATIC:
        mol.set_bond_order(index, neighbor, 1.0)
    else:
        mol.remove_bond(index, neighbor)
