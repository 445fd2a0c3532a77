"""The mutation register: faults planted in ``src/`` on purpose, each with the
tests that must fail on it (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11, 1978).

A mutant replaces ``old``, which occurs exactly once in the file at
``path``, by ``new``.  ``tests`` are pytest node ids of test functions,
relative to the repository root; a parametrized function counts as failed
when any of its cases fails.  ``test_mutants.py`` keeps the register in
step with the source, so a refactor that moves a mutated line updates the
register with it; ``run_mutants.py`` plants each mutant in a copy of the
tree and runs its tests.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = (
    Mutant("d_second-sign",
           "src/tropform/superform.py",
           "return swap(_d_front(swap(a), -1 if a.p % 2 else 1))",
           "return swap(_d_front(swap(a), 1 if a.p % 2 else -1))",
           ("tests/test_superform.py::test_d_second_product_rule",
            "tests/test_composition.py::test_d_second_matches_the_d_second_block_expansion")),
    Mutant("pushforward-no-lattice-index",
           "src/tropform/cycle.py",
           "weight = m * lattice_index(sub, img.direction_lattice)",
           "weight = m",
           ("tests/test_bergman.py::test_projection_formula_on_bergman_fans",
            "tests/test_cycle.py::test_pushforward_scaling",
            "tests/test_cycle.py::test_projection_check_times2")),
    Mutant("check_balancing-ignores-weight",
           "src/tropform/cycle.py",
           "excess[j] += m * x",
           "excess[j] += x",
           ("tests/test_bergman.py::test_bergman_fans_are_balanced_and_a_raised_weight_is_not",
            "tests/test_cycle.py::test_balancing_weight_sensitivity")),
    Mutant("canonical_halfspace-not-reduced-on-hull",
           "src/tropform/polyhedra.py",
           "[x * c.denominator for x in u] + [c.numerator], hull)",
           "[x * c.denominator for x in u] + [c.numerator], [])",
           ("tests/test_polyhedra.py::test_canonical_halfspace_matches_fraction_reduction",
            "tests/test_polyhedra.py::test_facet_inequalities_do_not_depend_on_the_cutting_row")),
    Mutant("saturate-takes-the-complement",
           "src/tropform/lattice.py",
           "return _hull(lat.basis, lat.ambient_rank)[1]",
           "return _hull(lat.basis, lat.ambient_rank)[0]",
           ("tests/test_lattice.py::test_saturate_brute_force",
            "tests/test_lattice.py::test_saturate_matches_smith_form")),
    Mutant("hull-keyed-on-the-first-row",
           "src/tropform/lattice.py",
           "return _cached_hull(tuple(sorted(set(dirs))), r)",
           "return _cached_hull(tuple(sorted(set(dirs[:1]))), r)",
           ("tests/test_lattice.py::test_cached_kernels_match_their_computation",)),
    Mutant("eliminated-line-gets-no-earlier-bits",
           "src/tropform/polyhedra.py",
           "masks = [m | bit for m in masks] + [bit - 1]",
           "masks = [m | bit for m in masks] + [0]",
           ("tests/test_polyhedra.py::test_cut_of_a_line_of_the_lineality",
            "tests/test_polyhedra.py::test_dual_description_masks_are_the_tight_sets")),
    Mutant("cli-check-never-fails",
           "src/tropform/cli.py",
           "    if not ok:\n        raise CheckFailure(text)",
           "    if False:\n        raise CheckFailure(text)",
           ("tests/test_cli.py::test_cli_check_balancing",
            "tests/test_cli.py::test_cli_validate_reports_structured_violations")),
    Mutant("image-normal-without-the-sign-of-det",
           "src/tropform/lattice.py",
           "sign = 1 if determinant(m) > 0 else -1",
           "sign = 1",
           ("tests/test_cycle.py::test_pushforward_preserves_balancing",
            "tests/test_acceptance.py::test_criterion_06_pushforward_balanced",
            "tests/test_bergman.py::test_pushforwards_of_bergman_fans_are_balanced",
            "tests/test_polyhedra.py::test_affine_image_is_the_hull_of_the_mapped_vertices")),
    Mutant("image-candidate-is-the-cell-normal",
           "src/tropform/polyhedra.py",
           "cands.append((w, Fraction(dot(w, g[:-1]), g[-1])))",
           "cands.append((u, Fraction(dot(u, g[:-1]), g[-1])))",
           ("tests/test_polyhedra.py::test_affine_image_is_the_hull_of_the_mapped_vertices",)),
    Mutant("full_lattice-unbounded-cache",
           "src/tropform/lattice.py",
           "@lru_cache(maxsize=_CACHE_SIZE)\ndef full_lattice(r):",
           "@lru_cache(maxsize=None)\ndef full_lattice(r):",
           ("tests/test_imports.py::test_library_caches_are_bounded",)),
)
