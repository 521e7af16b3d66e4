"""Exact-arithmetic toolkit for crystallographic and Bieberbach groups.

Builds standard-form crystallographic groups from integer holonomy
matrices and rational translations, computes first homology, fixed
lattices and dual-torus fixed subgroups, runs Calabi reduction, and
decides connectivity (equivalently: being poly-Z) with a checkable
certificate either way.
"""

from .linalg import (
    IntMatrix,
    SmithForm,
    smith_normal_form,
    integer_kernel,
    determinant,
)
from .crystal import (
    AffineGen,
    CrystalGroup,
    TorsionWitness,
    CrystalError,
    ClosureBudgetExceeded,
    HolonomyNotFaithful,
    build_group,
    is_torsion_free,
    torsion_witness,
)
from .invariants import (
    AbelianInvariants,
    FixedLattice,
    FixedTorusSubgroup,
    TooManyFixedPoints,
    abelianization,
    fixed_lattice,
    fixed_torus,
    character_count,
)
from .orbits import (
    Character,
    StabilizerRecord,
    orbit_data,
)
from .finite import (
    FiniteGroup,
    finite_group_from_holonomy,
    all_subgroups,
    is_primitive,
    in_coprime_class,
    structure_name,
)
from .groupfile import (
    GroupFileError,
    document_to_group,
    group_to_document,
    load_group,
)
from .calabi import (
    SurjectionToZ,
    CalabiStep,
    PolyZSeries,
    ConnectivityReport,
    NotTorsionFree,
    surjection_to_Z,
    calabi_kernel,
    is_connective,
    connectivity_document,
)
from .catalog import (
    CatalogEntry,
    ExpectedInvariants,
    UnknownKey,
    catalog_list,
    catalog_get,
)

__all__ = [
    "IntMatrix", "SmithForm", "smith_normal_form", "integer_kernel", "determinant",
    "AffineGen", "CrystalGroup", "TorsionWitness", "CrystalError",
    "ClosureBudgetExceeded", "HolonomyNotFaithful", "build_group", "is_torsion_free",
    "torsion_witness",
    "AbelianInvariants", "FixedLattice", "FixedTorusSubgroup", "TooManyFixedPoints",
    "abelianization", "fixed_lattice", "fixed_torus", "character_count",
    "Character", "StabilizerRecord", "orbit_data",
    "FiniteGroup", "finite_group_from_holonomy",
    "all_subgroups", "is_primitive", "in_coprime_class", "structure_name",
    "GroupFileError", "document_to_group", "group_to_document", "load_group",
    "SurjectionToZ", "CalabiStep", "PolyZSeries", "ConnectivityReport",
    "NotTorsionFree", "surjection_to_Z", "calabi_kernel", "is_connective",
    "connectivity_document",
    "CatalogEntry", "ExpectedInvariants", "UnknownKey", "catalog_list", "catalog_get",
]
