"""Gluing schemes of tetrahedra and their consistency equations.

A scheme is a set of tetrahedra (abstract, with parameters, or realized with
vertex coordinates) plus face pairings with explicit vertex correspondences.
Edges fall into cycles under the pairings; walking a cycle while tracking one
endpoint collects a corner invariant at every visit, and the gluing condition
is that each such product equals 1 -- two equations per cycle, one per
endpoint.  The corner-to-invariant table lives in the tetra module and is
pinned by golden reproduction of the figure-eight system.

Also here: the Cartan-compatibility residuals of the two-tetrahedron scheme
and the exact solver for its symmetric gluings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .scalars import CycloNumber, ONE
from .heisenberg import cartan
from .tetra import (
    CORNER_INDEX,
    FAMILY_OF_VERTEX,
    DegenerateTetrahedronError,
    TetraParams,
    Tetrahedron,
    VERTEX_ROLES,
    cartan_tangents,
    invariant_label,
)


class SchemeError(ValueError):
    """Structurally invalid gluing scheme."""


Face = Tuple[str, str, str]
Edge = FrozenSet[str]


@dataclass(frozen=True)
class FacePairing:
    """An ordered face-to-face identification: src_face[i] maps to dst_face[i]."""

    src_tet: str
    src_face: Face
    dst_tet: str
    dst_face: Face

    def vertex_map(self) -> Dict[str, str]:
        return dict(zip(self.src_face, self.dst_face))

    def inverse_map(self) -> Dict[str, str]:
        return dict(zip(self.dst_face, self.src_face))


@dataclass(frozen=True)
class CycleStart:
    """Deterministic traversal seed: slot, tracked endpoint, first exit face."""

    tet: str
    edge: Tuple[str, str]
    endpoint: str
    exit_face: Face


@dataclass(frozen=True)
class Corner:
    tet: str
    vertex: str
    towards: str

    def label(self, letter: str) -> str:
        return invariant_label(
            letter,
            FAMILY_OF_VERTEX[self.vertex],
            CORNER_INDEX[(self.vertex, self.towards)],
        )


@dataclass(frozen=True)
class EdgeEquation:
    """One per-endpoint gluing equation around an edge cycle."""

    cycle_index: int
    endpoint_index: int
    corners: Tuple[Corner, ...]
    labels: Tuple[str, ...]
    product: Optional[CycloNumber]
    simplified: Optional[str]

    def raw_form(self) -> str:
        return " ".join(self.labels)

    def holds(self) -> Optional[bool]:
        if self.product is None:
            return None
        return self.product == ONE


class GluingScheme:
    """Tetrahedra with face pairings; vertices and parameters are optional.

    `letters` names the invariant family letter per tetrahedron (z, w, ...).
    Every face of every tetrahedron must occur in exactly one pairing.
    """

    def __init__(
        self,
        tetrahedra: Sequence[str],
        pairings: Sequence[FacePairing],
        letters: Optional[Dict[str, str]] = None,
        vertices: Optional[Dict[str, Tetrahedron]] = None,
        cycle_starts: Optional[Sequence[CycleStart]] = None,
    ):
        self.tetrahedra = list(tetrahedra)
        self.pairings = list(pairings)
        self.letters = dict(letters or {})
        self.vertices = dict(vertices or {})
        self.cycle_starts = list(cycle_starts or [])
        for i, name in enumerate(self.tetrahedra):
            self.letters.setdefault(name, "zwvu"[i % 4])
        self._validate()

    def _validate(self):
        seen: Dict[Tuple[str, FrozenSet[str]], int] = {}
        for p in self.pairings:
            for tet, face in ((p.src_tet, p.src_face), (p.dst_tet, p.dst_face)):
                if tet not in self.tetrahedra:
                    raise SchemeError(f"pairing references unknown tetrahedron {tet}")
                if sorted(face) != sorted(set(face)) or any(
                    v not in VERTEX_ROLES for v in face
                ):
                    raise SchemeError(f"bad face {face}")
                key = (tet, frozenset(face))
                seen[key] = seen.get(key, 0) + 1
        for tet in self.tetrahedra:
            for skip in VERTEX_ROLES:
                face = frozenset(v for v in VERTEX_ROLES if v != skip)
                n = seen.get((tet, face), 0)
                if n != 1:
                    raise SchemeError(
                        f"face {sorted(face)} of {tet} paired {n} times (need 1)"
                    )

    # -- edge cycle machinery -------------------------------------------------

    def _pairing_of(self, tet: str, face: Edge):
        for p in self.pairings:
            if p.src_tet == tet and frozenset(p.src_face) == face:
                return p.dst_tet, p.vertex_map()
            if p.dst_tet == tet and frozenset(p.dst_face) == face:
                return p.src_tet, p.inverse_map()
        raise SchemeError(f"face {sorted(face)} of {tet} is unpaired")

    @staticmethod
    def _faces_containing(edge: Edge) -> List[Edge]:
        return [
            frozenset(edge | {v}) for v in VERTEX_ROLES if v not in edge
        ]

    def edge_cycles(self) -> List[List[Tuple[str, Edge]]]:
        """Equivalence classes of (tet, edge) under the face pairings, as
        closed traversal orders."""
        remaining = {
            (tet, frozenset((a, b)))
            for tet in self.tetrahedra
            for a in VERTEX_ROLES
            for b in VERTEX_ROLES
            if a < b
        }
        cycles = []
        seeds = [
            ((s.tet, frozenset(s.edge)), frozenset(s.exit_face))
            for s in self.cycle_starts
        ]
        while remaining:
            for seed, exit_face in seeds:
                if seed in remaining:
                    start, first_exit = seed, exit_face
                    break
            else:
                start = min(remaining, key=lambda te: (te[0], sorted(te[1])))
                first_exit = min(
                    self._faces_containing(start[1]), key=sorted
                )
            cycle = []
            tet, edge = start
            exit_face = first_exit
            while True:
                cycle.append((tet, edge))
                remaining.discard((tet, edge))
                dst_tet, vmap = self._pairing_of(tet, exit_face)
                new_edge = frozenset(vmap[v] for v in edge)
                entry_face = frozenset(vmap[v] for v in exit_face)
                tet, edge = dst_tet, new_edge
                exit_face = next(
                    f for f in self._faces_containing(edge) if f != entry_face
                )
                if (tet, edge) == start:
                    # close only when the next exit would re-enter the cycle
                    if frozenset(exit_face) == frozenset(first_exit):
                        break
                    if (tet, edge) not in remaining:
                        break
            cycles.append(cycle)
        return cycles

    def _walk(self, start: CycleStart):
        """Corner sequence around one cycle tracking one endpoint."""
        corners = []
        tet = start.tet
        edge = frozenset(start.edge)
        endpoint = start.endpoint
        exit_face = frozenset(start.exit_face)
        origin = (tet, edge, endpoint)
        while True:
            other = next(iter(edge - {endpoint}))
            corners.append(Corner(tet, endpoint, other))
            dst_tet, vmap = self._pairing_of(tet, exit_face)
            entry_face = frozenset(vmap[v] for v in exit_face)
            edge = frozenset(vmap[v] for v in edge)
            endpoint = vmap[endpoint]
            tet = dst_tet
            exit_face = next(
                f for f in self._faces_containing(edge) if f != entry_face
            )
            if (tet, edge, endpoint) == origin:
                break
            if len(corners) > 24 * len(self.tetrahedra):
                raise SchemeError("edge cycle failed to close")
        return corners

    def default_starts(self) -> List[CycleStart]:
        """One start per (cycle, endpoint), honoring explicit seeds first."""
        starts = []
        cycles = self.edge_cycles()
        for cyc in cycles:
            slots = set(cyc)
            chosen = [
                s
                for s in self.cycle_starts
                if (s.tet, frozenset(s.edge)) in slots
            ]
            if chosen:
                starts.extend(chosen[:2])
                continue
            tet, edge = min(cyc, key=lambda te: (te[0], sorted(te[1])))
            exit_face = min(self._faces_containing(edge), key=sorted)
            for endpoint in sorted(edge):
                starts.append(
                    CycleStart(tet, tuple(sorted(edge)), endpoint, tuple(sorted(exit_face)))
                )
        return starts

    # -- equations ---------------------------------------------------------------

    def edge_equations(
        self, params: Optional[Dict[str, TetraParams]] = None
    ) -> List[EdgeEquation]:
        """The per-endpoint gluing equations, symbolic and (given parameters)
        exactly evaluated."""
        equations = []
        cycles = self.edge_cycles()
        starts = self.default_starts()
        slot_to_cycle = {}
        for ci, cyc in enumerate(cycles):
            for slot in cyc:
                slot_to_cycle[slot] = ci
        per_cycle_count: Dict[int, int] = {}
        for s in starts:
            corners = self._walk(s)
            ci = slot_to_cycle[(s.tet, frozenset(s.edge))]
            ei = per_cycle_count.get(ci, 0)
            per_cycle_count[ci] = ei + 1
            labels = tuple(c.label(self.letters[c.tet]) for c in corners)
            product = None
            if params is not None:
                product = ONE
                for c in corners:
                    product = product * params[c.tet].corner_value(c.vertex, c.towards)
            simplified = self._simplify(corners)
            equations.append(
                EdgeEquation(ci, ei, tuple(corners), labels, product, simplified)
            )
        return equations

    def _simplify(self, corners: Sequence[Corner]) -> Optional[str]:
        """Collapse family pairs via x_k x_{k+1} = x_{k+1} - 1 (cyclic).

        Applies when each tetrahedron contributes one repeated family and one
        singleton, which is the shape of the two-tetrahedron system.
        """
        by_tet: Dict[str, Dict[str, list]] = {}
        for c in corners:
            fam = FAMILY_OF_VERTEX[c.vertex]
            idx = CORNER_INDEX[(c.vertex, c.towards)]
            by_tet.setdefault(c.tet, {}).setdefault(fam, []).append(idx)
        parts = []
        for tet in sorted(by_tet, key=self.tetrahedra.index):
            letter = self.letters[tet]
            fams = by_tet[tet]
            pair = [(f, sorted(ix)) for f, ix in fams.items() if len(ix) == 2]
            single = [(f, ix[0]) for f, ix in fams.items() if len(ix) == 1]
            if len(pair) != 1 or len(single) != 1 or len(fams) != 2:
                return None
            fam, (i, j) = pair[0]
            successor = {(1, 2): 2, (2, 3): 3, (1, 3): 1}
            if (i, j) not in successor:
                return None
            parts.append(f"({invariant_label(letter, fam, successor[(i, j)])}-1)")
            parts.append(invariant_label(letter, single[0][0], single[0][1]))
        return " ".join(parts)

    # -- realized-vertex checks ------------------------------------------------

    def pairing_invariants(self) -> List[dict]:
        """Per pairing: the exact eta-equality of the two face triples.

        A necessary condition for a holomorphic face identification to exist.
        Requires realized vertices.
        """
        out = []
        for p in self.pairings:
            src = self.vertices[p.src_tet]
            dst = self.vertices[p.dst_tet]
            eta_src = cartan(*(src[v] for v in p.src_face))
            eta_dst = cartan(*(dst[v] for v in p.dst_face))
            out.append(
                {
                    "pairing": f"{p.src_tet}{p.src_face} -> {p.dst_tet}{p.dst_face}",
                    "equal": eta_src.same_as(eta_dst),
                    "opposite": eta_src.opposite_of(eta_dst),
                }
            )
        return out


# ---------------------------------------------------------------------------
# the two-tetrahedron scheme
# ---------------------------------------------------------------------------


def figure_eight_scheme() -> GluingScheme:
    """The abstract two-tetrahedron scheme of the figure-eight complement.

    Pairings and traversal seeds are pinned so the generic edge walk
    reproduces the published four-equation system verbatim.
    """
    pairings = [
        FacePairing("T", ("p1", "p2", "q1"), "U", ("p1", "p2", "q2")),
        FacePairing("T", ("p1", "q1", "q2"), "U", ("q1", "q2", "p2")),
        FacePairing("T", ("p1", "p2", "q2"), "U", ("q1", "q2", "p1")),
        FacePairing("T", ("p2", "q1", "q2"), "U", ("p2", "q1", "p1")),
    ]
    starts = [
        CycleStart("T", ("p1", "p2"), "p1", ("p1", "p2", "q1")),
        CycleStart("T", ("p1", "p2"), "p2", ("p1", "p2", "q1")),
        CycleStart("T", ("p1", "q2"), "p1", ("p1", "q1", "q2")),
        CycleStart("T", ("p1", "q2"), "q2", ("p1", "q1", "q2")),
    ]
    return GluingScheme(
        ["T", "U"], pairings, letters={"T": "z", "U": "w"}, cycle_starts=starts
    )


def cartan_compatibility(
    params_t: TetraParams, params_u: TetraParams
) -> List[dict]:
    """The four invariant-matching constraints of the two-tetrahedron scheme.

    Exact residuals of:
        t = s'      (faces p1p2q1 <-> p1p2q2)
        B(z,t,s) = D(w,t',s')
        s = B(w,t',s')
        D(z,t,s) = t'
    where B is the (p1,q1,q2)-tangent and D the (p2,q1,q2)-tangent.  Only
    three constraints are independent: the fourth follows from the cocycle
    identity of the angular invariants.
    """
    tz = cartan_tangents(params_t.z1, params_t.t, params_t.s)
    tw = cartan_tangents(params_u.z1, params_u.t, params_u.s)
    residuals = [
        ("t = s'", params_t.t - params_u.s),
        ("B(z) = D(w)", tz[1] - tw[3]),
        ("s = B(w)", params_t.s - tw[1]),
        ("D(z) = t'", tz[3] - params_u.t),
    ]
    return [
        {
            "constraint": name,
            "residual": value,
            "holds": value.is_zero(),
            "independent": k < 3,
        }
        for k, (name, value) in enumerate(residuals)
    ]


def regular_params(z: CycloNumber) -> TetraParams:
    """Parameters of the regular symmetric tetrahedron with invariant z.

    Requires Re z != 1; the common height is t = Im z / (1 - Re z).
    """
    if z.re() == ONE:
        raise DegenerateTetrahedronError("regular parametrization needs Re z != 1")
    t = z.im() / (ONE - z.re())
    return TetraParams.from_zts(z, t, t)


def symmetric_gluing_solver() -> dict:
    """All symmetric gluings of the two-tetrahedron scheme, exactly.

    Symmetric tetrahedra under this scheme are forced regular with one
    common invariant w satisfying w^2 + conj(w) = 0, whose nonzero solutions
    are the cube roots of -1 on the unit circle.  Candidates are filtered by
    the full equation system (with the partner invariant equal to w), by
    non-degeneracy (w not real), and by the positive-height orientation
    convention of the realized tetrahedra.
    """
    candidates = [
        -ONE,
        CycloNumber.zeta_power(4),   # exp(+i pi/3)
        CycloNumber.zeta_power(20),  # exp(-i pi/3)
    ]
    for w in candidates:
        assert w ** 3 == -ONE
    scheme = figure_eight_scheme()
    survivors = []
    rejected = []
    for w in candidates:
        if w.is_real():
            rejected.append({"value": w, "reason": "degenerate: real parameter"})
            continue
        t = w.im() / (ONE - w.re())
        if t.sign() <= 0:
            rejected.append(
                {"value": w, "reason": "orientation: height t = Im w/(1-Re w) <= 0"}
            )
            continue
        params = regular_params(w)
        eqs = scheme.edge_equations({"T": params, "U": params})
        compat = cartan_compatibility(params, params)
        if all(eq.holds() for eq in eqs) and all(c["holds"] for c in compat):
            survivors.append(w)
        else:
            rejected.append({"value": w, "reason": "equation system fails"})
    return {
        "candidates": candidates,
        "survivors": survivors,
        "rejected": rejected,
        "unique": survivors[0] if len(survivors) == 1 else None,
    }
