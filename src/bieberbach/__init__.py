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
    HermiteForm,
    smith_normal_form,
    hermite_normal_form,
    integer_kernel,
    solve_integer_linear,
    rational_rank,
    determinant,
)
from .crystal import (
    AffineGen,
    CrystalGroup,
    HolonomyElement,
    TorsionWitness,
    CrystalError,
    ClosureBudgetExceeded,
    NonIntegralCocycle,
    HolonomyNotFaithful,
    NotInGroup,
    build_group,
    element_normal_form,
    reconstruct_element,
    is_torsion_free,
    torsion_witness,
    multiply,
    invert,
)
from .invariants import (
    AbelianInvariants,
    FixedLattice,
    FixedTorusSubgroup,
    abelianization,
    fixed_lattice,
    fixed_torus,
    character_count,
)
from .orbits import (
    Character,
    StabilizerRecord,
    character,
    orbit_data,
    stabilizer_classes,
    induced_dimension,
)
from .finite import (
    FiniteGroup,
    Subgroup,
    CoprimeTree,
    OrderBudgetExceeded,
    finite_group,
    finite_group_from_holonomy,
    all_subgroups,
    sylow_subgroup,
    has_normal_complement,
    is_primitive,
    in_coprime_class,
    coprime_split_properties,
    cyclic_group,
    semidirect_cyclic,
    direct_product,
    structure_name,
)
from .groupfile import (
    GroupFileError,
    document_to_group,
    group_to_document,
    load_group,
    dump_group,
)
from .calabi import (
    SurjectionToZ,
    CalabiStep,
    PolyZSeries,
    ConnectivityReport,
    NotTorsionFree,
    InvariantProjectionFailure,
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

__all__ = [name for name in dir() if not name.startswith("_")]
