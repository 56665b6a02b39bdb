"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line with the measured values.  All stochastic
criteria run from fixed substreams of one master seed; criterion 9 re-runs
the statistics of criteria 5-8 and demands bit-identical results at one and
at several worker threads.
"""

import math

import numpy as np
import pytest

from basis_oracle import father_at
from wavedens.classical import fit_classical
from wavedens.estimator import (
    EstimatorConfig,
    dilation_coefficients,
    estimate_coefficients,
    fit_model,
    normalization_mass,
)
from wavedens.metrics import GridSpec, grid_eval, negative_mass
from wavedens.simulation import (
    BenchmarkConfig,
    exp_law_check,
    get_density,
    moment_identity_check,
    run_benchmark,
    sample_mixture,
)
from wavedens.wavelets import BasisIndex, cached_family, daubechies_filter

MASTER_SEED = 20240901
GRID_128 = GridSpec.unit(2, 128)


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def substream(*key):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(MASTER_SEED, spawn_key=key))
    )


# ---------------------------------------------------------------------------
# shared (expensive) computations, reused by criterion 9's determinism re-runs
# ---------------------------------------------------------------------------


def moment_identity_statistics():
    half = moment_identity_check(0.5, 1, 1024, 200, substream(5, 1))
    one = moment_identity_check(1.0, 1, 1024, 200, substream(5, 2))
    two = moment_identity_check(1.0, 2, 1024, 200, substream(5, 3))
    # ratio of raw k-th moment means, the Gamma recurrence predicts 2
    ratio = 2.0 * two.empirical / one.empirical
    return half, one, two, ratio


def trend_coefficient_variance(n, reps, stream_key):
    rng = substream(*stream_key)
    cfg = EstimatorConfig(wavelet_order=1, j0=0, J=-1, k=1, normalize=False)
    key = BasisIndex(0, (0, 0), 0)
    values = np.empty(reps)
    for m in range(reps):
        values[m] = estimate_coefficients(rng.random((n, 2)), cfg).entries[key]
    return float(values.var(ddof=1))


def exp_law_statistic():
    return exp_law_check(4096, 50, substream(7, 1))


BENCH_MAIN = BenchmarkConfig(
    densities=("similar-pair",),
    sample_sizes=(128, 512, 2048),
    replications=50,
    J_values=(-1, 0, 1, 2, 3),
    k_values=(1,),
    wavelet_order=6,
    j0=0,
    grid_resolution=128,
    seed=MASTER_SEED,
    estimators=("shape-preserving", "classical"),
)

BENCH_KSWEEP = BenchmarkConfig(
    densities=("similar-pair",),
    sample_sizes=(512,),
    replications=50,
    J_values=(-1, 0, 1, 2, 3),
    k_values=(1, 8),
    wavelet_order=6,
    j0=0,
    grid_resolution=128,
    seed=MASTER_SEED,
    estimators=("shape-preserving",),
)


def strip_walltime(report_obj):
    return [row._replace(wall_time=0.0) for row in report_obj.rows]


def best_over_J(rows, n, k):
    cells = [
        row for row in rows
        if row.estimator == "shape-preserving" and row.n == n and row.k == k
    ]
    best = min(cells, key=lambda row: row.mise)
    return best.mise, best.mise_se, best.J + 1


@pytest.fixture(scope="module")
def moment_results():
    return moment_identity_statistics()


@pytest.fixture(scope="module")
def variance_results():
    return (
        trend_coefficient_variance(256, 500, (6, 1)),
        trend_coefficient_variance(1024, 500, (6, 2)),
    )


@pytest.fixture(scope="module")
def ks_result():
    return exp_law_statistic()


@pytest.fixture(scope="module")
def bench_main():
    return run_benchmark(BENCH_MAIN, workers=2)


@pytest.fixture(scope="module")
def bench_ksweep():
    return run_benchmark(BENCH_KSWEEP, workers=2)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_hand_oracle_coefficient():
    points = np.array([[0.2], [0.4], [0.7]])
    with pytest.warns(UserWarning):
        coeffs = estimate_coefficients(
            points, EstimatorConfig(wavelet_order=1, j0=0, J=-1, k=1, normalize=False)
        )
    value = coeffs.entries[BasisIndex(0, (0,), 0)]
    report(1, abs(value - 1.32867) <= 1e-5, f"alpha_hat = {value:.7f} vs 1.32867 +/- 1e-5")


def test_criterion_2_cascade_correctness():
    # db2 integer values against the independent eigen oracle
    sqrt3 = math.sqrt(3.0)
    h = daubechies_filter(2)
    m = math.sqrt(2.0) * np.array([[h[1], h[0]], [h[3], h[2]]])
    vals, vecs = np.linalg.eig(m)
    oracle = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    oracle = oracle / oracle.sum()
    fam2 = cached_family(2, 10)
    eig_err = max(
        abs(father_at(fam2, 1.0) - oracle[0]), abs(father_at(fam2, 2.0) - oracle[1])
    )
    worst = {"eigen": eig_err, "pou": 0.0, "int_phi": 0.0, "int_phi2": 0.0, "moment": 0.0}
    for order in range(1, 9):
        fam = cached_family(order, 10)
        step = 2.0 ** -fam.dyadic_resolution
        cells = 1 << fam.dyadic_resolution
        pou = np.zeros(cells)
        for z in range(fam.support_length):
            pou += fam.father_table[z * cells : z * cells + cells]
        worst["pou"] = max(worst["pou"], float(np.max(np.abs(pou - 1.0))))
        phi = fam.father_table[:-1]
        worst["int_phi"] = max(worst["int_phi"], abs(float(phi.sum() * step) - 1.0))
        worst["int_phi2"] = max(worst["int_phi2"], abs(float((phi**2).sum() * step) - 1.0))
        x = np.arange(phi.size) * step
        psi = fam.mother_table[:-1]
        for j in range(order):
            worst["moment"] = max(worst["moment"], abs(float((x**j * psi).sum() * step)))
    ok = (
        worst["eigen"] < 1e-10
        and worst["pou"] < 1e-8
        and worst["int_phi"] < 5e-4
        and worst["int_phi2"] < 5e-4
        and worst["moment"] < 1e-6
    )
    report(
        2, ok,
        "eigen {eigen:.2e} (<1e-10), partition {pou:.2e} (<1e-8), "
        "int phi {int_phi:.2e}, int phi^2 {int_phi2:.2e} (<5e-4), "
        "moments {moment:.2e} (<1e-6)".format(**worst),
    )


def test_criterion_3_dilation_identity():
    rng = substream(3, 1)
    worst = 0.0
    for order in (2, 6):
        for _ in range(10):
            pts = rng.random((200, 2))
            direct = estimate_coefficients(
                pts, EstimatorConfig(wavelet_order=order, j0=2, J=2, k=1, normalize=False)
            )
            fine = estimate_coefficients(
                pts, EstimatorConfig(wavelet_order=order, j0=3, J=2, k=1, normalize=False)
            )
            filtered = dilation_coefficients(fine)
            keys = set(direct.entries) | set(filtered.entries)
            worst = max(
                worst,
                max(
                    abs(direct.entries.get(key, 0.0) - filtered.entries.get(key, 0.0))
                    for key in keys
                ),
            )
    report(3, worst < 1e-10, f"max entry-wise |direct - filtered| = {worst:.3e} (< 1e-10)")


def test_criterion_4_shape_preservation():
    fixtures = []
    # each fixture draws from the substream numbered by its position, so every
    # process tests the same samples
    for position, (density, cfg) in enumerate([
        ("similar-pair", EstimatorConfig(wavelet_order=6, j0=0, J=2, k=1)),
        ("anisotropic-pair", EstimatorConfig(wavelet_order=2, j0=0, J=1, k=2)),
        ("comb4", EstimatorConfig(wavelet_order=6, j0=0, J=3, k=1, threshold_constant=1.0)),
        ("uniform", EstimatorConfig(wavelet_order=1, j0=0, J=0, k=1)),
    ]):
        pts = sample_mixture(get_density(density), 400, substream(4, position))
        fixtures.append((density, fit_model(pts, cfg)))
    worst_min, worst_mass = np.inf, 0.0
    for _, model in fixtures:
        field = grid_eval(model, GRID_128)
        worst_min = min(worst_min, float(field.values.min()))
        worst_mass = max(worst_mass, abs(normalization_mass(model.coefficients) - 1.0))
    # classical negativity witness: clustered data, detail levels
    rng = np.random.default_rng(314159)
    cluster = 0.5 + 0.06 * rng.standard_normal((200, 2))
    cluster = cluster[np.all((cluster > 0) & (cluster < 1), axis=1)][:150]
    witness = fit_classical(cluster, EstimatorConfig(wavelet_order=6, j0=0, J=2, k=1))
    neg = negative_mass(grid_eval(witness, GRID_128))
    ok = worst_min >= 0.0 and worst_mass <= 1e-10 and neg < 0.0
    report(
        4, ok,
        f"min density over fitted models = {worst_min:.3e} (>= 0), "
        f"max |mass - 1| = {worst_mass:.2e} (<= 1e-10), "
        f"classical witness negative mass = {neg:.4f} (< 0)",
    )


def test_criterion_5_moment_identity_desk_scale(moment_results):
    half, one, _, ratio = moment_results
    ok = (
        abs(half.empirical - 1.0) <= 0.05
        and abs(one.empirical - 1.0) <= 0.05
        and abs(ratio - 2.0) <= 0.2
    )
    report(
        5, ok,
        f"a=1/2 mean {half.empirical:.4f}, a=1 mean {one.empirical:.4f} "
        f"(both within 0.05 of 1), k2/k1 ratio {ratio:.4f} (within 10% of 2)",
    )


def test_criterion_6_variance_scaling(variance_results):
    var256, var1024 = variance_results
    ratio = var256 / var1024
    report(6, 2.0 <= ratio <= 8.0, f"Var(alpha_hat) ratio n=256/n=1024 = {ratio:.3f} in [2, 8]")


def test_criterion_7_exponential_limit_law(ks_result):
    report(7, ks_result < 0.03, f"KS distance of n*V_(1) to Exp(1) = {ks_result:.4f} (< 0.03)")


def test_criterion_8i_best_mise_decreases_with_n(bench_main):
    rows = bench_main.rows
    stats = {n: best_over_J(rows, n, 1) for n in (128, 512, 2048)}
    ok = True
    steps = []
    for n_small, n_large in ((128, 512), (512, 2048)):
        m_s, se_s, _ = stats[n_small]
        m_l, se_l, _ = stats[n_large]
        gap = m_s - m_l
        need = 2.0 * math.hypot(se_s, se_l)
        steps.append(f"{n_small}->{n_large}: {m_s:.4f}-{m_l:.4f} (gap {gap:.4f} > {need:.4f})")
        ok &= gap > need
    report(8, ok, "(i) best-over-J MISE decreases: " + "; ".join(steps))


def test_criterion_8ii_argmin_level_nondecreasing(bench_main):
    rows = bench_main.rows
    argmins = [best_over_J(rows, n, 1)[2] for n in (128, 512, 2048)]
    ok = argmins[0] <= argmins[1] <= argmins[2]
    report(8, ok, f"(ii) argmin J+1 across n = {argmins} (non-decreasing)")


def test_criterion_8iii_k1_within_two_se_of_k8(bench_ksweep):
    rows = bench_ksweep.rows
    m1, se1, _ = best_over_J(rows, 512, 1)
    m8, se8, _ = best_over_J(rows, 512, 8)
    slack = 2.0 * math.hypot(se1, se8)
    report(
        8, m1 <= m8 + slack,
        f"(iii) MISE(k=1) = {m1:.4f} vs MISE(k=8) + 2*SE = {m8:.4f} + {slack:.4f} "
        f"= {m8 + slack:.4f} at n=512",
    )


def test_criterion_9_determinism_and_worker_invariance(
    moment_results, variance_results, ks_result, bench_main, bench_ksweep
):
    again = moment_identity_statistics()
    ok = again == moment_results
    var_again = (
        trend_coefficient_variance(256, 500, (6, 1)),
        trend_coefficient_variance(1024, 500, (6, 2)),
    )
    ok &= var_again == variance_results
    ok &= exp_law_statistic() == ks_result
    main_serial = strip_walltime(run_benchmark(BENCH_MAIN, workers=1))
    main_parallel = strip_walltime(run_benchmark(BENCH_MAIN, workers=4))
    ok &= main_serial == strip_walltime(bench_main) == main_parallel
    ksweep_serial = strip_walltime(run_benchmark(BENCH_KSWEEP, workers=1))
    ksweep_parallel = strip_walltime(run_benchmark(BENCH_KSWEEP, workers=4))
    ok &= ksweep_serial == strip_walltime(bench_ksweep) == ksweep_parallel
    report(
        9, ok,
        "criteria 5-8 statistics bit-identical on re-run; benchmark rows identical "
        "at 1, 2, and 4 workers",
    )
