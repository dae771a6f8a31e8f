"""Acceptance gate: the eleven headline properties at their stated sizes.

Each test drives one verification suite at seed 0 with the default case
counts, prints a single PASS/FAIL line, and fails if any case inside the
suite missed its bound.  Run with -s to see the lines as they happen.
"""

import time

import pytest

from multicentric.verify import SUITES, run_suite


def _run(criterion, name, time_limit=None, **overrides):
    t0 = time.perf_counter()
    rep = run_suite(name, seed=0, **overrides)
    elapsed = time.perf_counter() - t0
    status = "PASS" if rep.passed else "FAIL"
    print(f"{status} criterion {criterion:2d} [{name}] "
          f"cases={len(rep.cases)} worst={rep.worst:.3e} "
          f"time={elapsed:.2f}s")
    assert rep.passed, (
        f"criterion {criterion} [{name}]: {rep.n_failed} of "
        f"{len(rep.cases)} cases failed, worst measure {rep.worst:.3e}"
    )
    if time_limit is not None:
        assert elapsed < time_limit, (
            f"criterion {criterion} [{name}] took {elapsed:.1f}s, "
            f"limit {time_limit}s"
        )
    return rep


def test_criterion_01_homomorphism():
    # 200 random pairs, d in 2..5, 50 samples, relative 1e-10, under 10 s
    _run(1, "homomorphism", time_limit=10.0)


def test_criterion_02_two_center_closed_forms():
    # closed-form product and inverse against the generic path, 1e-12
    _run(2, "d2-forms")


def test_criterion_03_nilpotent_example():
    # B_f(-1) = [[0.5, 0.5], [-0.5, -0.5]] exactly and f*f = 0 to 1e-14
    _run(3, "nilpotent")


def test_criterion_04_eigenvalue_identity():
    # eigenvalues of the multiplication matrices = fiber values, 1e-8
    _run(4, "eigenvalue-identity")


def test_criterion_05_characters():
    # defining equations to 1e-10; exact standard basis at w0 = 0
    _run(5, "characters")


def test_criterion_06_spectral_radius():
    # power iteration within 5% at k = 10; exact 0 for radical elements
    _run(6, "spectral-radius")


def test_criterion_07_inversion_bound():
    # empirical constant <= 1 + 1e-8 at d = 2; resolvent lower bound
    _run(7, "inversion-bound")


def test_criterion_08_jordan_calculus():
    # Hermite oracle at the 3x3 block, and multiplicativity up to n = 8
    _run(8, "jordan-calculus")


def test_criterion_09_spectral_mapping():
    # Hausdorff <= 1e-6 on 100 instances plus the scalar-matrix case
    _run(9, "spectral-mapping")


def test_criterion_10_norm_blowup():
    # log-log slope -(1 - alpha) +/- 0.15 for alpha = 0.5, under 30 s
    _run(10, "norm-blowup", time_limit=30.0)


def test_criterion_11_nondifferentiable():
    # fourth-root samples near the critical value keep chi_A defined
    _run(11, "nondifferentiable")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_passed_iff_measure_within_bound(name):
    # The inversion-bound cases also need the resolvent lower bound and
    # the scalar-matrix case a strictly larger fiber image, so for those
    # passing only implies the measure is within the bound.
    compound = ("inversion-bound-", "spectral-mapping-scalar-matrix")
    for c in run_suite(name, seed=0, cases=4).cases:
        within = c.measure <= c.bound
        if c.case_id.startswith(compound):
            assert within or not c.passed, c.case_id
        else:
            assert c.passed == within, c.case_id
