"""End-to-end acceptance checks.

Each test prints one [acceptance] line (run with pytest -s to see them all)
and then asserts.  These pin the behavior the package promises at desk
scale: correct gradients, the divergence-surface geometry, separation
quality on the canned benchmarks, and the invariant bundle.
"""

import time

import numpy as np
import pytest

from ccsica.bench import _fig4_run, bench_fig7, bench_t1, bench_t4, bench_t5
from ccsica.divergences import (
    DiscreteBivariate,
    ccs_div,
    cs_div,
    divergence_slice,
    make_divergence,
    second_differences,
)
from ccsica.metrics import amari_index
from ccsica.objective import CcsObjective
from ccsica.optimizers import JacobiConfig, ica_pairwise_jacobi, rotation
from ccsica.preprocess import remove_mean, whiten
from ccsica.sources import random_mixing_matrix, source_bank


_KINDS4 = ("uniform", "laplacian", "rayleigh", "lognormal")


def _report(cid: str, slug: str, ok: bool, details: str) -> None:
    print(f"[acceptance] {cid} {slug}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"{cid} {slug}: {details}"


def _random_table(g: np.random.Generator) -> DiscreteBivariate:
    cells = g.uniform(0.02, 1.0, 4)
    return DiscreteBivariate.from_joint((cells / cells.sum()).reshape(2, 2))


@pytest.fixture(scope="module")
def fig4_runs():
    # both learning-curve branches, shared by the SIR and trace criteria
    return {
        "alpha_neg": _fig4_run(0, -0.99999, 0.3),
        "alpha_pos": _fig4_run(0, 1.0, 0.7),
    }


def test_c1_gradient_matches_finite_differences():
    start = time.perf_counter()
    g = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        data = g.standard_normal((2, 200))
        w = random_mixing_matrix(2, g)
        obj = CcsObjective(data, alpha=float(g.uniform(-0.9, 0.9)), stride=1)
        grad = obj.value_and_gradient(w)[1]
        fd = np.empty_like(grad)
        eps = 1e-6
        for i in range(2):
            for j in range(2):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += eps
                wm[i, j] -= eps
                fd[i, j] = (obj.value(wp) - obj.value(wm)) / (2 * eps)
        rel = float(np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12))
        worst = max(worst, rel)
    runtime = time.perf_counter() - start
    _report("C1", "gradient-check", worst <= 1e-3 and runtime < 60.0,
            f"max rel err {worst:.2e} over 50 instances, {runtime:.1f}s")


def test_c2_slice_minimum_at_independence():
    marg1, marg2 = [0.7, 0.3], [0.5, 0.5]
    cell = marg1[0] / 64
    offsets = {}
    for label, which, kwargs in (
        ("ccs(a=-1)", "ccs", dict(alpha=-1.0)),
        ("cs", "cs", {}),
        ("kl", "kl", {}),
        ("e", "e", {}),
        ("c(a=0.5)", "c", dict(alpha=0.5, weight=0.5)),
    ):
        rows = divergence_slice(marg1, marg2, 64, which, **kwargs)
        k = int(np.argmin(rows[:, 2]))
        offsets[label] = abs(rows[k, 0] - 0.35)
    ok = all(v <= cell for v in offsets.values())
    worst = max(offsets, key=offsets.get)
    _report("C2", "slice-argmin", ok,
            f"worst offset {offsets[worst]:.5f} ({worst}) vs cell width {cell:.5f}")


def test_c3_convexity_split():
    marg1, marg2 = [0.7, 0.3], [0.5, 0.5]
    ccs_floor = np.inf
    for alpha in (-1.0, 1.0):
        rows = divergence_slice(marg1, marg2, 64, "ccs", alpha=alpha)
        ccs_floor = min(ccs_floor, float(np.min(second_differences(rows[:, 2]))))
    cs_rows = divergence_slice(marg1, marg2, 64, "cs")
    cs_floor = float(np.min(second_differences(cs_rows[:, 2])))
    ok = ccs_floor >= -1e-9 and cs_floor < -1e-6
    _report("C3", "convexity-split", ok,
            f"ccs min second diff {ccs_floor:.2e}, cs min second diff {cs_floor:.2e}")


def test_c4_two_source_table():
    start = time.perf_counter()
    header, rows = bench_t1(scale=0.2, seed=0, jobs=1, algorithm="jacobi")
    runtime = time.perf_counter() - start
    med_ix = header.index("median_amari_x100")
    by_pair = {r[0]: r for r in rows}
    row = by_pair["uniform+laplacian"]
    ok = row[med_ix] <= 5.0 and row[1] == 20 and runtime <= 600.0
    _report("C4", "two-source-median", ok,
            f"median amari x100 {row[med_ix]:.3f} over {row[1]} trials, table in {runtime:.0f}s")


def test_c5_parametric_gd_sir(fig4_runs):
    details = []
    ok = True
    for label, (res, sirs, _) in fig4_runs.items():
        ok = ok and bool(np.all(sirs >= 20.0))
        details.append(f"{label}: {sirs[0]:.1f}/{sirs[1]:.1f} dB in {res.n_iter} iters")
    _report("C5", "gd-sir", ok, "; ".join(details))


def test_c6_four_source_scaling():
    start = time.perf_counter()
    header, rows = bench_t4(scale=0.2, seed=0, jobs=1, algorithm="jacobi",
                            dims=[4], samples=[2000])
    runtime = time.perf_counter() - start
    med_ix = header.index("median_amari_x100")
    row = rows[0]
    ok = row[med_ix] <= 8.0 and row[2] == 10
    _report("C6", "m4-median", ok,
            f"median amari x100 {row[med_ix]:.3f} over {row[2]} trials, {runtime:.0f}s")


def test_c7_eval_size_tradeoff():
    header, rows = bench_t5(scale=0.08, seed=0, jobs=1,
                            dims=[2], samples=[4000], eval_fracs=[0.01, 1.0])
    mean_ix = header.index("mean_amari_x100")
    rt_ix = header.index("mean_runtime_s")
    by_frac = {r[2]: r for r in rows}
    small, full = by_frac[0.01], by_frac[1.0]
    gap = small[mean_ix] - full[mean_ix]
    ratio = full[rt_ix] / small[rt_ix]
    ok = gap <= 3.0 and ratio >= 10.0
    _report("C7", "eval-size-tradeoff", ok,
            f"mean gap {gap:+.3f} (x100 scale), runtime ratio {ratio:.1f}x")


def test_c8_noisy_three_source():
    header, rows = bench_fig7(scale=1.0, seed=0, jobs=1)
    sir_ix = header.index("sir_db")
    base_ix = header.index("baseline_sir_db")
    wins = 0
    trials = sorted({r[0] for r in rows})
    for k in trials:
        trial_rows = [r for r in rows if r[0] == k]
        if all(r[sir_ix] > r[base_ix] for r in trial_rows):
            wins += 1
    ok = wins >= 8 and len(trials) == 10
    _report("C8", "noisy-bss-vs-baseline", ok,
            f"{wins}/{len(trials)} trials beat the whitening baseline on all 3 sources")


def test_c9_learning_curve(fig4_runs):
    ok = True
    details = []
    for label, (res, _, _) in fig4_runs.items():
        trace = np.asarray(res.trace)
        finite = bool(np.all(np.isfinite(trace)))
        ok = ok and finite and trace[-1] < trace[0]
        details.append(f"{label}: {trace[0]:.4f} -> {trace[-1]:.5f}, len {len(trace)}")
    _report("C9", "trace-descent", ok, "; ".join(details))


def test_c10_invariant_bundle():
    g = np.random.default_rng(505)
    checks = {}

    values = []
    for _ in range(10_000):
        d = _random_table(g)
        values.append(ccs_div(d, -1.0))
        values.append(ccs_div(d, 1.0))
        values.append(cs_div(d))
    checks["nonnegativity"] = min(values) >= -1e-12

    worst = 0.0
    for _ in range(200):
        m1 = float(g.uniform(0.05, 0.95))
        m2 = float(g.uniform(0.05, 0.95))
        d = DiscreteBivariate.independent([m1, 1 - m1], [m2, 1 - m2])
        for which in ("ccs", "cs", "kl", "e", "js", "c", "alpha", "beta"):
            worst = max(worst, abs(make_divergence(which, alpha=0.5)(d)))
    checks["independence-zero"] = worst < 1e-10

    worst = 0.0
    for _ in range(500):
        d = _random_table(g)
        dt = DiscreteBivariate.from_joint(d.joint.T)
        worst = max(worst, abs(ccs_div(d, -1.0) - ccs_div(dt, -1.0)))
    checks["ccs-symmetry"] = worst <= 1e-14

    ok_cert = True
    for _ in range(1000):
        d = _random_table(g)
        j, p = d.joint.ravel(), d.product_cells().ravel()
        ok_cert = ok_cert and (j @ p) ** 2 <= (j @ j) * (p @ p) + 1e-18
    checks["cs-certificate"] = ok_cert

    worst = 0.0
    for _ in range(200):
        d = _random_table(g)
        for sign in (1.0, -1.0):
            worst = max(worst, abs(ccs_div(d, sign * (1 - 1e-6)) - ccs_div(d, sign)))
    checks["alpha-continuity"] = worst <= 1e-4

    worst = 0.0
    for _ in range(100):
        a = random_mixing_matrix(3, g)
        w = random_mixing_matrix(3, g)
        d = float(g.uniform(0.5, 2.0)) * np.diag(g.choice([-1.0, 1.0], 3))
        p = np.eye(3)[g.permutation(3)]
        worst = max(worst, abs(amari_index(d @ p @ w, a) - amari_index(w, a)))
    checks["amari-invariance"] = worst <= 1e-12

    worst = 0.0
    for theta in np.linspace(-np.pi / 4, np.pi / 4, 21):
        r = rotation(theta)
        worst = max(worst, float(np.max(np.abs(r @ r.T - np.eye(2)))))
    checks["rotation-orthogonality"] = worst <= 1e-14

    x = random_mixing_matrix(4, g) @ source_bank(_KINDS4, 2000, seed=17)
    z, _ = whiten(remove_mean(x)[0])
    cov = z @ z.T / z.shape[1]
    checks["whitening-covariance"] = float(np.max(np.abs(cov - np.eye(4)))) <= 1e-6

    s = source_bank(("uniform", "laplacian"), 4000, seed=0)
    z = (s - s.mean(axis=1, keepdims=True)) / s.std(axis=1, keepdims=True)
    res = ica_pairwise_jacobi(rotation(np.pi / 8) @ z, JacobiConfig(stride=10))
    gain = np.sort(np.abs(res.demixer @ rotation(np.pi / 8)), axis=1)
    residual = float(np.max(np.arctan(gain[:, 0] / gain[:, 1])))
    checks["jacobi-known-rotation"] = residual <= np.pi / 64

    failed = [k for k, v in checks.items() if not v]
    _report("C10", "invariant-bundle", not failed,
            f"{len(checks)} suites: " + (f"failed {failed}" if failed else "all pass"))
