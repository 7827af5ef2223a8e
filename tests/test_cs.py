import csv
import json
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from dcprox import cs, oracles
from dcprox.linop import gram_spectrum
from dcprox.problem import SolverParams, tau_upper_bound
from dcprox.psg import solve


def test_case_table_shapes():
    assert cs.CASES[1] == ("gaussian", 180, 640, 20)
    assert cs.CASES[4] == ("gaussian", 2880, 10240, 320)
    assert cs.CASES[5] == ("dct", 180, 640, 20)
    assert cs.CASES[8] == ("dct", 2880, 10240, 320)
    for kind, m, d, s in cs.CASES.values():
        assert m < d and s < m


def test_gen_gaussian_modes():
    B, norm_scaled = cs.gen_gaussian(30, 80, 0, mode="scaled")
    assert B.shape == (30, 80)
    assert abs(B.std() * np.sqrt(30) - 1.0) < 0.1
    assert np.linalg.norm(B, 2) <= norm_scaled <= (1 + 1e-8) * np.linalg.norm(B, 2)
    Q, norm_q = cs.gen_gaussian(30, 80, 0, mode="orthonormal")
    assert np.max(np.abs(Q @ Q.T - np.eye(30))) < 1e-12
    assert norm_q == 1.0


def test_gen_gaussian_full_row_rank():
    A, _ = cs.gen_gaussian(25, 60, 7, mode="scaled")
    s = np.linalg.svd(A, compute_uv=False)
    assert s[-1] > 1e-8


# m is not a multiple of the 64-row draw block; (180, 640) and (360, 1280)
# (cases 1 and 2) pin the bytes of the QR that runs at one BLAS thread
@pytest.mark.parametrize("m, d", [(130, 333), (180, 640), (360, 1280)])
@pytest.mark.parametrize("mode", ["scaled", "orthonormal"])
def test_gen_gaussian_column_major_equals_row_major_draw(mode, m, d):
    A, norm_A = cs.gen_gaussian(m, d, 11, mode=mode)
    assert A.flags.f_contiguous
    R = np.random.default_rng(11).standard_normal((m, d))
    if mode == "orthonormal":
        Q, _ = np.linalg.qr(R.T)
        assert np.array_equal(A, Q.T) and norm_A == 1.0
        return
    R /= np.sqrt(m)
    assert np.array_equal(A, R)
    assert norm_A == gram_spectrum(R)[1]


def test_gen_gaussian_rejects_a_rank_deficient_draw(monkeypatch):
    monkeypatch.setattr(cs, "gram_spectrum",
                        lambda A: (np.array([0.0, 1.0]), 1.0))
    with pytest.raises(RuntimeError, match="not of full row rank"):
        cs.gen_gaussian(2, 5, 0, mode="scaled")


# (31, 32), (32, 32) and (33, 33) take row 0, row d/2 and every pair k, d - k
# that shares one bin of the length-d real FFT, for even and odd d
@pytest.mark.parametrize("m, d", [(12, 32), (13, 33), (31, 32), (32, 32), (33, 33),
                                  (180, 640)])
def test_dct_map_matches_scipy_rows(m, d):
    seed = 5
    A = cs.gen_dct(m, d, seed)
    assert (A.dim_out, A.dim_in) == (m, d)
    # rows are drawn as gen_dct has always drawn them, so seeds keep their rows
    rows = np.sort(np.random.default_rng(seed).choice(d, size=m, replace=False))
    want = scipy.fft.dct(np.eye(d), norm="ortho", axis=0)[rows]
    by_apply = np.column_stack([A.apply(e) for e in np.eye(d)])
    assert np.max(np.abs(by_apply - want)) <= 1e-13
    assert np.max(np.abs(A.dense() - want)) <= 1e-13


@pytest.mark.parametrize("case", [5, 6, 7, 8])
def test_dct_cases_adjoint_and_norm(case):
    inst = cs.make_instance(case, 0, 0.1, "least-squares")
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(inst.A.dim_in)
        y = rng.standard_normal(inst.A.dim_out)
        lhs, rhs = inst.A.apply(x) @ y, x @ inst.A.adjoint(y)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
    spec = cs.build_cs_problem(inst)
    assert 1.0 <= spec.norm_A <= 1.0 + 2e-9


def test_largest_dct_case_forms_no_matrix():
    # the dense 2880 x 10240 matrix alone took 236 MB
    tracemalloc.start()
    try:
        cs.build_cs_problem(cs.make_instance(8, 0, 0.1, "least-squares"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_gen_ground_truth_sparsity():
    x = cs.gen_ground_truth(200, 15, 4)
    assert x.shape == (200,)
    assert np.count_nonzero(x) == 15


def test_ground_truth_error():
    x_g = np.array([3.0, 4.0])
    assert cs.ground_truth_error(x_g, x_g) == 0.0
    assert abs(cs.ground_truth_error(np.zeros(2), x_g) - 1.0) < 1e-15


def test_make_instance_deterministic_and_noiseless():
    a = cs.make_instance(1, 5, 0.1, "least-squares")
    b = cs.make_instance(1, 5, 0.1, "least-squares")
    assert np.array_equal(a.A.dense(), b.A.dense())
    assert np.array_equal(a.x_g, b.x_g)
    assert np.allclose(a.b, a.A.dense() @ a.x_g)
    assert (a.m, a.d, a.s) == (180, 640, 20)
    c = cs.make_instance(1, 6, 0.1, "least-squares")
    assert not np.array_equal(a.A.dense(), c.A.dense())


def test_make_instance_per_loss_ensembles():
    ls = cs.make_instance(1, 0, 0.1, "least-squares")
    lz = cs.make_instance(1, 0, 0.001, "lorentzian")
    A_lz, A_ls = lz.A.dense(), ls.A.dense()
    assert np.max(np.abs(A_lz @ A_lz.T - np.eye(lz.m))) < 1e-12
    assert np.max(np.abs(A_ls @ A_ls.T - np.eye(ls.m))) > 1e-6


def test_build_cs_problem_objective_at_origin():
    inst = cs.make_instance(("gaussian", 20, 50, 4), 0, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    zero = np.zeros(inst.d)
    assert abs(spec.objective(zero) - 0.5 * inst.b @ inst.b) < 1e-12
    assert spec.lipschitz_ell == 1.0
    x = np.zeros(inst.d)
    x[0] = 2.0
    # f - g = gamma (|x|_1 - |x|) vanishes on one-sparse vectors
    assert abs(spec.value_f(x) - spec.value_g(x)) < 1e-15


def test_build_cs_problem_prox_uses_scaled_threshold():
    inst = cs.make_instance(("gaussian", 20, 50, 4), 0, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    w = np.linspace(-1, 1, inst.d)
    assert np.allclose(spec.prox_fC(w, 2.0),
                       oracles.soft_threshold(w, 0.2), atol=1e-15)


def test_build_cs_problem_regularizer_value_and_gamma():
    inst = cs.make_instance(("gaussian", 20, 50, 4), 0, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    x = np.zeros(inst.d)
    x[:2] = [3.0, -4.0]
    assert abs(spec.value_f(x) - spec.value_g(x) - 0.1 * (7.0 - 5.0)) < 1e-15


@pytest.mark.parametrize("case, screened", [
    (1, False), (2, True), (5, False), (6, False),
    (("gaussian", 270, 960, 30), True), (("gaussian", 220, 782, 24), False),
    # 250,000 and 249,996 entries, either side of oracles.SCREEN_MIN_ENTRIES
    (("gaussian", 250, 1000, 10), True), (("gaussian", 249, 1004, 10), False),
])
def test_build_cs_problem_screens_large_matrix_maps_only(case, screened):
    inst = cs.make_instance(case, 0, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    rec = spec.l1l2
    assert rec.gamma == inst.gamma
    assert rec.map_A is inst.A
    assert all(getattr(spec, name) == made for name, made in rec.fields().items())
    assert (rec.matrix is not None) == screened
    if screened:
        assert rec.matrix is inst.A.matrix
        assert rec.matrix.flags.f_contiguous


def test_case2_seed419_builds_with_certified_norm():
    # sigma_1 and sigma_2 lie 3.5e-4 apart on this draw
    inst = cs.make_instance(2, 419, 0.1, "least-squares")
    spec = cs.build_cs_problem(inst)
    exact = np.linalg.norm(inst.A.dense(), 2)
    assert exact <= spec.norm_A <= (1 + 1e-8) * exact


@pytest.mark.parametrize("case", [1, 2])
def test_least_squares_norm_is_certified_and_tight(case):
    for seed in range(30):
        inst = cs.make_instance(case, seed, 0.1, "least-squares")
        exact = np.linalg.norm(inst.A.dense(), 2)
        assert exact <= inst.norm_A <= (1 + 1e-8) * exact, seed


@pytest.mark.parametrize("case, loss_kind", [
    (1, "lorentzian"), (5, "least-squares"), (6, "least-squares"),
    (5, "lorentzian"),
])
def test_orthonormal_rows_take_norm_one(case, loss_kind):
    inst = cs.make_instance(case, 0, 0.1, loss_kind)
    assert inst.norm_A == 1.0
    assert cs.build_cs_problem(inst).norm_A == 1.0
    assert np.linalg.norm(inst.A.dense(), 2) <= 1 + 1e-12


def test_save_load_round_trip(tmp_path):
    inst = cs.make_instance(("dct", 16, 40, 3), 9, 0.001, "lorentzian")
    out = tmp_path / "bundle"
    cs.save_instance(inst, out)
    matrix = np.loadtxt(out / "matrix.csv", delimiter=",", ndmin=2)
    assert np.array_equal(matrix, inst.A.dense())
    assert np.array_equal(np.loadtxt(out / "b.csv", delimiter=","), inst.b)
    assert np.array_equal(np.loadtxt(out / "ground_truth.csv", delimiter=","),
                          inst.x_g)
    with open(out / "meta.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    assert {k: json.loads(v) for k, v in rows[1:]} == {
        "gamma": inst.gamma, "loss_kind": inst.loss_kind, "seed": 9,
        "matrix_kind": inst.matrix_kind, "s": inst.s, "m": 16, "d": 40,
    }


@pytest.fixture(scope="module")
def gamma_bias():
    """Proposed solves of least-squares cases 1 and 5, seeds 0-2, at gamma
    0.1 (the sweep's) and 0.01: per (case, seed), the prox-gradient residual
    at exit of the gamma = 0.1 solve and the ground-truth error of each."""
    out = {}
    for case in (1, 5):
        for seed in range(3):
            errors = {}
            for gamma in (0.1, 0.01):
                inst = cs.make_instance(case, seed, gamma, "least-squares")
                spec = cs.build_cs_problem(inst)
                rep = solve(spec, np.zeros(inst.d), SolverParams())
                assert rep.status == "converged"
                errors[gamma] = cs.ground_truth_error(rep.x, inst.x_g)
                if gamma == 0.1:
                    tau = tau_upper_bound(spec, SolverParams())
                    grad = spec.map_A.adjoint(
                        spec.grad_h(spec.map_A.apply(rep.x)))
                    step = rep.x - spec.prox_fC(
                        rep.x - tau * (grad - spec.subgrad_g(rep.x)), tau)
                    residual = float(np.linalg.norm(step)) / tau
            out[case, seed] = residual, errors
    return out


def test_least_squares_solves_stop_stationary(gamma_bias):
    # ||x - prox_tf(x - tau (A* grad h(Ax) - xi))|| / tau, xi = subgrad_g(x),
    # the prox-gradient mapping of the paper's stationarity condition;
    # seeds 0-19 measured 3.3-5.5e-7 on case 1 and 3.1-5.1e-8 on case 5
    for (case, seed), (residual, errors) in gamma_bias.items():
        assert residual <= 1e-6, (case, seed, residual)
        # while the error stays four orders above criterion 2's 5e-6
        assert errors[0.1] >= 5e-2, (case, seed, errors)


def test_ground_truth_error_scales_with_gamma(gamma_bias):
    # the L1-L2 model's bias: a tenth of gamma gives about a tenth of the
    # error; seeds 0-19 measured ratios of 0.098-0.117 on case 1 and
    # 0.100-0.137 on case 5
    for (case, seed), (_, errors) in gamma_bias.items():
        ratio = errors[0.01] / errors[0.1]
        assert 0.085 <= ratio <= 0.15, (case, seed, ratio)
