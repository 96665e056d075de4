"""Surface-level invariants of an unmixed ramification structure.

Given a disjoint pair of spherical systems (T_C, T_D) for a group G this
module computes, exactly:

  * the multiplicities of every complex irreducible in the G-action on
    the first cohomology of each covering curve, via Broughton's closed
    form  n(rho_i) = deg(rho_i) (r - 2) - sum_j l_{g_j}(rho_i), where
    l_g is the multiplicity of the trivial character in the restriction
    to <g> (zero for the trivial representation itself);
  * the induced multiplicities over the irreducible rational
    representations (complex multiplicity divided by the Schur index);
  * chi(O_S), e(S), K^2, q and the Hodge diamond of the quotient surface;
  * the dimension of the invariant piece Z of the middle cohomology with
    its per-orbit breakdown, and the a/b/c/d shape classification of how
    Z arises when chi = 2;
  * for each contributing orbit, the kernel subgroup, the identified
    quotient group and the genera of the intermediate quotient curves;
  * the resulting Picard-number verdict.

Everything is pure bookkeeping over exact character data; out-of-regime
inputs are reported as `unclassified` with a diagnosis instead of being
forced into a case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import chartab as ct
from .chartab import CharacterTable, RationalCharacter
from .groups import Subgroup, describe_group
from .ramification import (
    QuotientSystem,
    RamificationStructure,
    SphericalSystem,
    quotient_system,
)


class SurfaceError(RuntimeError):
    """Numerically impossible data for a genuine structure (defect)."""


# ---------------------------------------------------------------------------
# Broughton multiplicities


@dataclass(frozen=True)
class BroughtonTable:
    """Multiplicities of the irreducibles in H^1 of the covering curve."""

    system: SphericalSystem
    table: CharacterTable
    complex_multiplicities: tuple[int, ...]   # per table row
    orbits: tuple[RationalCharacter, ...]
    rational_multiplicities: tuple[int, ...]  # per orbit


def broughton(system: SphericalSystem, table: CharacterTable,
              orbits=None) -> BroughtonTable:
    group = system.group
    if table.group is not group:
        raise SurfaceError("system and table belong to different groups")
    r = system.length
    mults = []
    for i, chi in enumerate(table):
        if i == table.trivial_index:
            mults.append(0)
            continue
        n = chi.degree * (r - 2)
        for e in system.entries:
            n -= ct.trivial_restriction_multiplicity(chi, e)
        if n < 0:
            raise SurfaceError(
                f"negative multiplicity {n} for an irreducible of degree "
                f"{chi.degree} (impossible for a genuine system)"
            )
        mults.append(n)
    total = sum(m * table[i].degree for i, m in enumerate(mults))
    if total != 2 * system.genus():
        raise SurfaceError(
            f"multiplicities sum to dimension {total}, expected {2 * system.genus()}"
        )
    orbits = tuple(orbits if orbits is not None else ct.galois_orbits(table))
    rational = []
    for orbit in orbits:
        values = {mults[i] for i in orbit.indices}
        if len(values) != 1:
            raise SurfaceError("multiplicity varies across a Galois orbit")
        (m,) = values
        s = orbit.schur_index
        if m % s:
            raise SurfaceError(
                f"complex multiplicity {m} is not divisible by the Schur index {s}"
            )
        rational.append(m // s)
    return BroughtonTable(system, table, tuple(mults), orbits, tuple(rational))


# ---------------------------------------------------------------------------
# numerical invariants


@dataclass(frozen=True)
class SurfaceInvariants:
    chi: int
    euler: int
    k_squared: int
    irregularity: int
    geometric_genus: int
    hodge_diamond: tuple[tuple[int, ...], ...]


def surface_invariants(structure: RamificationStructure) -> SurfaceInvariants:
    """chi(O_S) = (g(C)-1)(g(D)-1)/|G|, e = 4 chi, K^2 = 8 chi, q = 0
    (both quotient curves are rational), and the resulting diamond."""
    g1, g2 = structure.genera()
    order = structure.group.order
    chi = Fraction((g1 - 1) * (g2 - 1), order)
    if chi.denominator != 1:
        raise SurfaceError(f"chi(O_S) = {chi} is not an integer")
    chi = int(chi)
    q = 0
    pg = chi - 1 + q
    euler = 4 * chi
    h11 = euler - 2 + 4 * q - 2 * pg
    diamond = ((1,), (q, q), (pg, h11, pg), (q, q), (1,))
    return SurfaceInvariants(chi, euler, 8 * chi, q, pg, diamond)


# ---------------------------------------------------------------------------
# the invariant piece Z of the middle cohomology


@dataclass(frozen=True)
class OrbitContribution:
    orbit: RationalCharacter
    orbit_position: int
    n_c: int
    n_d: int
    tensor_multiplicity: int

    @property
    def product(self) -> int:
        return self.n_c * self.n_d * self.tensor_multiplicity


@dataclass(frozen=True)
class DimZ:
    total: int
    contributions: tuple[OrbitContribution, ...]


def dim_z(b_c: BroughtonTable, b_d: BroughtonTable) -> DimZ:
    """dim Z = sum over orbits of n_C * n_D * (trivial multiplicity in the
    tensor square), with the list of nonzero contributions."""
    if b_c.table is not b_d.table:
        raise SurfaceError("Broughton tables over different character tables")
    contribs = []
    for pos, orbit in enumerate(b_c.orbits):
        nc = b_c.rational_multiplicities[pos]
        nd = b_d.rational_multiplicities[pos]
        if nc and nd:
            m = ct.tensor_trivial_multiplicity(orbit, orbit)
            contribs.append(OrbitContribution(orbit, pos, nc, nd, m))
    return DimZ(sum(c.product for c in contribs), tuple(contribs))


def classify_type(dz: DimZ, invariants: SurfaceInvariants) -> tuple[str, str | None]:
    """Match the dim Z = 4 breakdown against the four shapes a/b/c/d.

    a: one absolutely irreducible orbit with n_C = n_D = 2;
    b: one quaternionic orbit (s = 2, rational values) with n_C = n_D = 1;
    c: one conjugate pair (s = 1, field degree 2) with {n_C, n_D} = {1, 2};
    d: two conjugate pairs, each with n_C = n_D = 1.

    Returns (letter, None) or ("unclassified", diagnosis).
    """
    if invariants.chi != 2 or invariants.irregularity != 0:
        return "unclassified", (
            f"classification applies to regular surfaces with chi = 2; "
            f"got chi = {invariants.chi}, q = {invariants.irregularity}"
        )
    if dz.total != 4:
        return "unclassified", f"dim Z = {dz.total}, expected 4"
    cs = dz.contributions
    if len(cs) == 1:
        c = cs[0]
        shape = (c.orbit.field_degree, c.orbit.schur_index)
        if (c.n_c, c.n_d) == (2, 2) and c.tensor_multiplicity == 1 and shape == (1, 1):
            return "a", None
        if (c.n_c, c.n_d) == (1, 1) and c.tensor_multiplicity == 4 and shape == (1, 2):
            return "b", None
        if {c.n_c, c.n_d} == {1, 2} and c.tensor_multiplicity == 2 and shape == (2, 1):
            return "c", None
        return "unclassified", (
            f"single contribution {c.n_c}*{c.n_d}*{c.tensor_multiplicity} with "
            f"orbit shape (field degree {shape[0]}, Schur index {shape[1]}) "
            f"matches no case"
        )
    if len(cs) == 2 and all(
        (c.n_c, c.n_d, c.tensor_multiplicity) == (1, 1, 2)
        and (c.orbit.field_degree, c.orbit.schur_index) == (2, 1)
        for c in cs
    ):
        return "d", None
    return "unclassified", (
        f"{len(cs)} contributing orbits with products "
        f"{[c.product for c in cs]} match no case"
    )


# ---------------------------------------------------------------------------
# intermediate quotients


@dataclass(frozen=True)
class QuotientAnalysis:
    orbit: RationalCharacter
    orbit_position: int
    kernel: Subgroup
    quotient_name: str
    system_c: QuotientSystem
    system_d: QuotientSystem

    @property
    def genera(self) -> tuple[int, int]:
        return self.system_c.genus, self.system_d.genus


def quotient_analysis(structure: RamificationStructure,
                      orbit: RationalCharacter,
                      orbit_position: int) -> QuotientAnalysis:
    """Pass to the quotient by the kernel of a contributing orbit: identify
    G/H and compute the genera of both intermediate curves."""
    kernel = orbit.kernel()
    quot = structure.group.quotient(kernel)
    qc = quotient_system(structure.t1, kernel, quot)
    qd = quotient_system(structure.t2, kernel, quot)
    return QuotientAnalysis(
        orbit, orbit_position, kernel,
        describe_group(qc.quotient.group), qc, qd,
    )


# ---------------------------------------------------------------------------
# Picard verdict


PICARD_CASE_TABLE = (
    "rho(E1 x E2) = 4 if E1, E2 are isogenous with complex multiplication; "
    "3 if isogenous without CM; 2 otherwise"
)


@dataclass(frozen=True)
class PicardVerdict:
    rho: int | None            # exact value when determined
    possibilities: tuple[int, ...]
    note: str

    @property
    def determined(self) -> bool:
        return self.rho is not None


def picard_verdict(surface_type: str) -> PicardVerdict:
    """Types b and d force a pair of isogenous CM elliptic curves, so the
    Picard number is the maximal 4; for a and c it stays undetermined."""
    if surface_type == "b":
        return PicardVerdict(4, (4,), (
            "maximal Picard number: the middle cohomology is that of a "
            "self-product of the CM elliptic curve with period sqrt(-2)"
        ))
    if surface_type == "d":
        return PicardVerdict(4, (4,), (
            "maximal Picard number: the middle cohomology is that of a "
            "self-product of the CM elliptic curve with period i"
        ))
    if surface_type in ("a", "c"):
        return PicardVerdict(None, (2, 3, 4), PICARD_CASE_TABLE)
    raise SurfaceError(f"no Picard verdict for type {surface_type!r}")


# ---------------------------------------------------------------------------
# full analysis


@dataclass(frozen=True)
class SurfaceAnalysis:
    structure: RamificationStructure
    table: CharacterTable
    broughton_c: BroughtonTable
    broughton_d: BroughtonTable
    invariants: SurfaceInvariants
    dimension_z: DimZ
    surface_type: str
    diagnosis: str | None
    quotients: tuple[QuotientAnalysis, ...]
    picard: PicardVerdict | None

    @property
    def genera(self) -> tuple[int, int]:
        return self.structure.genera()


def analyze(structure: RamificationStructure,
            table: CharacterTable | None = None,
            orbits=None) -> SurfaceAnalysis:
    group = structure.group
    if table is None:
        table = ct.character_table(group)
    orbits = tuple(orbits if orbits is not None else ct.galois_orbits(table))
    b_c = broughton(structure.t1, table, orbits)
    b_d = broughton(structure.t2, table, orbits)
    inv = surface_invariants(structure)
    dz = dim_z(b_c, b_d)
    if inv.irregularity == 0:
        expected = inv.hodge_diamond[2][1] - 2 + 2 * inv.geometric_genus
        if dz.total != expected:
            raise SurfaceError(
                f"dim Z = {dz.total} contradicts the Hodge numbers "
                f"(expected {expected})"
            )
    kind, diagnosis = classify_type(dz, inv)
    quotients = tuple(
        quotient_analysis(structure, c.orbit, c.orbit_position)
        for c in dz.contributions
    )
    picard = picard_verdict(kind) if kind != "unclassified" else None
    return SurfaceAnalysis(
        structure, table, b_c, b_d, inv, dz, kind, diagnosis, quotients, picard
    )


# ---------------------------------------------------------------------------
# report rendering (a key-value tree; text and JSON carry identical values)


def analysis_report(analysis: SurfaceAnalysis, name: str | None = None) -> dict:
    s = analysis.structure
    group = s.group
    inv = analysis.invariants

    def orbit_entry(orbit: RationalCharacter, pos: int) -> dict:
        return {
            "position": pos,
            "rows": list(orbit.indices),
            "complex_degree": orbit.complex_degree,
            "field_degree": orbit.field_degree,
            "schur_index": orbit.schur_index,
            "schur_index_source": (
                "heuristic (unverified)" if orbit.schur_heuristic
                else "indicator policy"
            ),
            "rational_dimension": orbit.rational_dimension,
        }

    report = {
        "name": name or "structure",
        "group": {
            "recipe": group.recipe,
            "order": group.order,
            "classes": len(group.conjugacy_classes),
            "exponent": group.exponent,
        },
        "curves": {
            "C": {
                "tuple": s.t1.words(),
                "type": list(s.t1.signature),
                "genus": s.t1.genus(),
            },
            "D": {
                "tuple": s.t2.words(),
                "type": list(s.t2.signature),
                "genus": s.t2.genus(),
            },
        },
        "invariants": {
            "chi": inv.chi,
            "euler": inv.euler,
            "K2": inv.k_squared,
            "q": inv.irregularity,
            "p_g": inv.geometric_genus,
            "hodge_diamond": [list(row) for row in inv.hodge_diamond],
        },
        "broughton": {
            "complex_C": list(analysis.broughton_c.complex_multiplicities),
            "complex_D": list(analysis.broughton_d.complex_multiplicities),
            "rational_C": list(analysis.broughton_c.rational_multiplicities),
            "rational_D": list(analysis.broughton_d.rational_multiplicities),
        },
        "dim_Z": {
            "total": analysis.dimension_z.total,
            "contributions": [
                {
                    "orbit": orbit_entry(c.orbit, c.orbit_position),
                    "n_C": c.n_c,
                    "n_D": c.n_d,
                    "tensor_trivial": c.tensor_multiplicity,
                    "product": c.product,
                }
                for c in analysis.dimension_z.contributions
            ],
        },
        "type": analysis.surface_type,
        "quotients": [
            {
                "orbit_position": qa.orbit_position,
                "kernel_order": qa.kernel.order,
                "kernel_generators": [group.word(g) for g in qa.kernel.gens],
                "quotient_group": qa.quotient_name,
                "genus_C": qa.system_c.genus,
                "genus_D": qa.system_d.genus,
                "dropped_C": list(qa.system_c.dropped),
                "dropped_D": list(qa.system_d.dropped),
            }
            for qa in analysis.quotients
        ],
    }
    if analysis.diagnosis:
        report["diagnosis"] = analysis.diagnosis
    if analysis.picard is not None:
        report["picard"] = {
            "rho": analysis.picard.rho,
            "possibilities": list(analysis.picard.possibilities),
            "note": analysis.picard.note,
        }
    return report


def render_report(report: dict, indent: int = 0) -> str:
    """Deterministic plain-text rendering of a report tree."""
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_report(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(f"{pad}  -")
                lines.append(render_report(item, indent + 2))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(ln for ln in lines if ln)
