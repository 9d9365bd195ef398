"""Exact combinatorics of distinguished bases and Stokes matrices for the
simple and simple elliptic singularity families: braid-orbit enumeration,
covering degrees, and symbolic verification of the tabulated identities."""

from .lattice import (StokesMatrix, IntersectionMatrix, MonodromyMatrix,
                      DiagramGraph, symmetrized_form, monodromy_from_stokes,
                      pl_reflect, monodromy_product, coxeter_dynkin,
                      is_connected, radical_rank, is_quasiunipotent)
from .braid import (VanishingTuple, BraidWord, braid_apply, braid_apply_word,
                    stokes_of_tuple, sign_canonical_tuple,
                    sign_canonical_stokes, orbit_enumerate, OrbitReport)
from .polyalg import (MultiPoly, Cyclo, WeightSystem, parse_poly,
                      resultant, graded_piece_rank)
from .singdata import (SingularityClass, sing_class, normal_form, unfolding,
                       unfolding_monomials, weights, symmetry_data,
                       seed_stokes, tensor_stokes, SeedRecord, SeedError)
from .degrees import (deg_ll, deg_ll_simple, deg_ll_elliptic, segre_degree,
                      degC_from_lambda_orders, deg_ll_via_segre, u1_size,
                      quotient_degree, gz_order, stokes_class_count,
                      bases_class_count, full_basis_count, stokes_total,
                      counts_row, DegreeBreakdown)
from .verify import (CheckOutcome, jacobi_dimension, check_unfolding_identity,
                     check_lambda_projection, check_simple_symmetry,
                     check_kappa_extension, identity_suite, jacobi_suite)
from .llmap import (LLPoint, CriticalData, ll_exact_A, discriminant_member,
                    good_order, critical_values_numeric, ll_fiber_count,
                    wall_walk_A)

__version__ = "0.1.0"
