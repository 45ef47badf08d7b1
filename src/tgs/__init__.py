"""Finite commutative ternary structures with a parameter set: validation,
enumeration up to isomorphism, ideal theory, quotients, spectra, and modules."""

from .analysis import (SuiteCheck, analyze, evaluate_all_claims,
                       evaluate_claim, render_text, run_asserted_suite,
                       run_reported_suite)
from .core import (AxiomReport, ConsistencyError, GammaStructure, InputError,
                   ResourceLimitError, Verdict, Violation, apply_permutation,
                   canonical_form, dumps_structure, full_mask, load_structure,
                   mask_elements, mask_of, mask_size, max_order,
                   parse_structure, structure_from_bytes, structure_from_dict,
                   structure_to_dict, structures_isomorphic, ternary_product,
                   verify_axioms, zero_fixing_permutations)
from .enumeration import (ClassificationReport, classify,
                          enumerate_additive_monoids, enumerate_structures,
                          render_classification_text)
from .fixtures import (bool_or_and, chain_min_structure, mod_add_structure,
                       mod_mul_structure, saturating_zero_structure)
from .gamma_modules import (AnnihilatorResult, ModuleAction, ModuleAxiomReport,
                            annihilator, enumerate_module_actions,
                            enumerate_submodules, find_primitive_ideals,
                            is_simple_module, regular_module,
                            verify_module_axioms, zero_module)
from .ideals import (IdealInfo, IdealLattice, classify_ideal, enumerate_ideals,
                     generated_ideal, ideal_classes, ideal_lattice, is_ideal,
                     is_maximal, is_primary, is_prime, is_semiprime,
                     lattice_dot)
from .quotient import (bourne_congruence, congruence_to_ideal,
                       enumerate_congruences, has_nonzero_zero_divisors,
                       is_congruence, normalize_partition, quotient_structure)
from .radicals import (RadicalReport, ideal_radicals, is_semisimple,
                       jacobson_radical, radical_by_elements, radical_by_primes,
                       radical_report)
from .spectrum import (CrtReport, Decomposition, HomomorphismMap, SpectrumView,
                       closed_set, connected_components, crt_check,
                       decompose_by_idempotent, find_homomorphisms,
                       find_idempotents, is_simple, prime_spectrum,
                       pullback_ideal, quotient_by_ideal, spectrum_dot,
                       spectrum_points, verify_topology)

__version__ = "0.1.0"
