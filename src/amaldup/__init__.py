"""Amalgamated duplications of finite-dimensional complex algebras.

Given algebras A and F with a compatible F-bimodule structure on A, the
duplication glues them on the Cartesian product via

    (a, b) * (x, y) = (a x + a . y + b . x, b y)

and this package computes the structures that reduce to it: validation
of the compatibility axioms, spectra and companion functionals, ideal
and maximality tests, multiplier block decompositions, extended products
on duals with their topological centres, derivation spaces with first
(cyclic) cohomology, and the amenability transfer predicates, plus a
randomized audit of all of it.
"""

from .algebra import (BimoduleAction, Duplication, FinDimAlgebra,
                      canonical_construction, direct_sum, duplicate,
                      homomorphism_action, join_element, lau_action,
                      natural_action, span_products, validate_action,
                      validate_algebra)
from .bundles import (AlgebraBundle, bundle_from_triple, parse_bundle,
                      serialize_bundle)
from .derivations import (CohomologyReport, DerivationQuadruple, cohomology,
                          cyclic_amenability, decompose_derivation,
                          derivation_quadruple_space, derivation_space,
                          inner_space, is_inner_match,
                          module_derivation_space, property_h,
                          weak_amenability)
from .duals import (ArensStructure, DualBimodule, arens_products,
                    duplication_nth_dual, essentiality, nth_dual_bimodule,
                    topological_centres)
from .ideals import (ideal_generated, is_ideal, is_maximal_left_ideal,
                     product_ideal_test, project_components)
from .linalg import (Subspace, rank_nullspace, solve_affine, subspace_contains,
                     subspace_equal, subspace_intersect, subspace_sum)
from .multipliers import (MultiplierQuadruple, decompose_multiplier,
                          left_multiplier_space, quadruple_space)
from .spectrum import (Character, characters, duplication_spectrum,
                       gelfand_semisimple, radical_subspace, tilde)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
