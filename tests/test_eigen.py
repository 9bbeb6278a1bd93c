"""Eigen-factorization contracts: kernel repair, ordering, conditioning."""

import numpy as np
import pytest

from fracspec import (
    EvolutionConfig,
    PositiveEigenvalue,
    SingularMatrix,
    apply_fraclap,
    build_axis_factors,
    build_diff_matrices,
    build_fraclap,
    condition_number,
    factorize,
    gaussian_field,
    make_grid,
    run_evolution,
)


def second_derivative_matrix(N):
    return build_diff_matrices(make_grid(N, 1.0)).Dxx


@pytest.mark.parametrize("N", [2, 3, 8, 16, 32, 64, 128, 256])
def test_factorization_contract_on_derivative_matrices(N):
    f = factorize(make_grid(N, 1.0))
    h = (N + 1) // 2
    assert f.N == N
    # the even block ascending to the exact kernel 0, then the odd block ascending
    assert np.all(np.diff(f.lam[: h - 1]) > 0) and np.all(f.lam[: h - 1] < 0.0)
    assert f.zero_index == h - 1
    assert f.lam[h - 1] == 0.0
    assert np.all(np.diff(f.lam[h:]) > 0) and np.all(f.lam[h:] < 0.0)
    # kernel column is the exact normalized constant vector
    assert np.array_equal(f.P[:, f.zero_index], np.full(N, N**-0.5))
    # the kernel vector's raw Rayleigh quotient is recorded, tiny but not erased
    assert f.raw_zero_lambda != 0.0
    assert abs(f.raw_zero_lambda) <= 1e-6 * np.max(np.abs(f.lam))


@pytest.mark.parametrize("N", [2, 3, 16, 64, 128])
def test_factorization_reconstructs_the_matrix(N):
    Dxx = second_derivative_matrix(N)
    f = factorize(make_grid(N, 1.0))
    rebuilt = f.P @ np.diag(f.lam) @ f.Pinv
    rel = np.max(np.abs(rebuilt - Dxx)) / np.max(np.abs(Dxx))
    assert rel <= 1e-7, f"reconstruction residual {rel:.3e}"


@pytest.mark.parametrize("N", [2, 3, 16, 64, 128])
def test_inverse_really_inverts(N):
    f = factorize(make_grid(N, 1.0))
    resid = np.max(np.abs(f.P @ f.Pinv - np.eye(N)))
    assert resid <= 1e-9, f"P @ Pinv deviates from identity by {resid:.3e}"


@pytest.mark.parametrize("N", [2, 3, 4, 5, 16, 17, 64, 65])
def test_eigenvectors_are_exactly_even_or_odd(N):
    f = factorize(make_grid(N, 1.0))
    h = (N + 1) // 2
    assert f.P_even.shape == f.Pinv_even.shape == (h, h)
    assert f.P_odd.shape == f.Pinv_odd.shape == (N - h, N - h)
    P, Pinv = f.P, f.Pinv
    # the first h modes are even, the rest odd, all bitwise mirror copies:
    # P[N-1-i, k] == +-P[i, k], Pinv[k, N-1-j] == +-Pinv[k, j]
    assert np.array_equal(P[::-1, :h], P[:, :h])
    assert np.array_equal(P[::-1, h:], -P[:, h:])
    assert np.array_equal(Pinv[:h, ::-1], Pinv[:h])
    assert np.array_equal(Pinv[h:, ::-1], -Pinv[h:])
    if N % 2:
        assert np.all(P[h - 1, h:] == 0.0) and np.all(Pinv[h:, h - 1] == 0.0)


@pytest.mark.parametrize("N", [2, 3, 8, 9])
def test_rows_are_the_rows_of_the_dense_matrix(N):
    f = factorize(make_grid(N, 1.0))
    i = np.arange(N)
    assert np.array_equal(f.rows(i), f.P[i])
    assert np.array_equal(f.rows(N - 1), f.P[N - 1])


def test_factorization_is_deterministic():
    grid = make_grid(32, 1.0)
    a = factorize(grid)
    b = factorize(grid)
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.Pinv, b.Pinv)


def test_factor_arrays_are_read_only():
    f = factorize(make_grid(8, 1.0))
    for arr in (f.P, f.Pinv, f.lam, f.P_even, f.P_odd, f.Pinv_even, f.Pinv_odd, f.Pinv_fold):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("N", [2, 3, 16, 17])
def test_fold_inverse_weighs_the_paired_rows_twice(N):
    f = factorize(make_grid(N, 1.0))
    h = (N + 1) // 2
    mu = np.where(np.arange(h) < N // 2, 2.0, 1.0)
    assert np.array_equal(f.Pinv_fold, f.Pinv_even * mu)
    assert f.Pinv_fold is f.Pinv_fold
    with pytest.raises(ValueError):
        f.Pinv_fold[0, 0] = 0.0
    # it maps the top rows of a mirror-symmetric vector to its even modes
    v = np.random.default_rng(N).standard_normal(N)
    v += v[::-1]
    assert np.allclose(f.Pinv_fold @ v[:h], (f.Pinv @ v)[:h], rtol=0, atol=1e-12 * np.max(np.abs(v)))


@pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9, 501, 1000, 1001])
def test_parity_blocks_are_the_folded_rows_blocks(N):
    from fracspec.eigen import _parity_block
    from fracspec.grid import top_diff_rows
    from fracspec.tensor_ops import parity_fold

    grid = make_grid(N, 1.0)
    h, m = (N + 1) // 2, N // 2
    folded = parity_fold(top_diff_rows(grid)[1], 1)
    tol = 1e-15 * np.max(np.abs(second_derivative_matrix(N)))
    for odd, block in ((False, folded[:, :h]), (True, folded[:m, h:])):
        S, g, mult = _parity_block(grid, odd)
        assert np.array_equal(S, S.T)
        assert np.array_equal(mult, np.where(np.arange(len(g)) < m, 2.0, 1.0))
        # undo the similarity by diag(g)
        assert np.max(np.abs(S * (g[:, None] / g[None, :]) - block)) <= tol


def test_factorize_builds_no_derivative_rows(monkeypatch):
    import fracspec.eigen
    import fracspec.grid
    import fracspec.tensor_ops

    def refuse(*args, **kwargs):
        raise AssertionError("a full derivative row block was built")

    for module, name in ((fracspec.grid, "top_diff_rows"), (fracspec.grid, "folded_rows"),
                         (fracspec.tensor_ops, "parity_fold")):
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(fracspec.eigen, name, refuse, raising=False)
    f = factorize(make_grid(9, 1.0))
    assert f.P_odd.shape == (4, 4)


def test_factorize_peak_memory_is_a_few_half_blocks():
    import tracemalloc

    grid = make_grid(1001, 1.0)
    tracemalloc.start()
    try:
        factorize(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 501 x 501 block is 1.9 MiB; building the folded 501 x 1001 rows peaked at 15.4 MiB
    assert peak <= 12 * 2**20


def _recorded_eigh(monkeypatch):
    """Patch ``np.linalg.eigh`` to record the eigenvalues of every call, ``eigvalsh`` to fail."""
    real_eigh = np.linalg.eigh
    calls = []

    def recording(a):
        lam, vecs = real_eigh(a)
        calls.append(lam)
        return lam, vecs

    def no_eigvalsh(a):
        raise AssertionError("an eigenvalue-only solve ran")

    monkeypatch.setattr(np.linalg, "eigh", recording)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    return calls


@pytest.mark.parametrize("N", [2, 3, 31, 32, 501])
def test_odd_half_is_solved_once_on_first_access(N, monkeypatch):
    calls = _recorded_eigh(monkeypatch)
    f = factorize(make_grid(N, 1.0))
    assert len(calls) == 1
    P_odd, Pinv_odd = f.P_odd, f.Pinv_odd
    assert len(calls) == 2
    assert f.P_odd is P_odd and f.Pinv_odd is Pinv_odd and f.P.shape == (N, N)
    assert len(calls) == 2
    for arr in (P_odd, Pinv_odd):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # every paired row stands for itself and its mirror image
    m = N // 2
    assert np.max(np.abs(2.0 * Pinv_odd @ P_odd - np.eye(m))) <= 1e-12
    # the odd spectrum is that solve's eigenvalues, bit for bit
    assert f.lam_odd is calls[1]
    assert np.array_equal(f.lam[(N + 1) // 2:], calls[1])
    assert np.array_equal(f.lam[:(N + 1) // 2], f.lam_even)
    assert len(calls) == 2


def test_mirror_symmetric_runs_solve_only_the_even_blocks(monkeypatch):
    calls = _recorded_eigh(monkeypatch)
    dims, scales = (20, 21), (3.0, 3.5)
    op = build_fraclap(build_axis_factors(dims), scales, 0.4)
    apply_fraclap(op, gaussian_field([make_grid(N, L) for N, L in zip(dims, scales)]))
    assert len(calls) == 2
    # an asymmetric field solves each axis's odd block once, and only once
    U = np.random.default_rng(5).standard_normal(dims)
    apply_fraclap(op, U)
    assert len(calls) == 4
    apply_fraclap(op, U)
    assert len(calls) == 4
    cfg = EvolutionConfig(n=2, s=0.6, p=1.8, N=9, L=2.0, dt=0.01, t_end=0.02, snapshot_times=(0.02,))
    run_evolution(cfg, gaussian_field([make_grid(9, 2.0)] * 2))
    assert len(calls) == 5


EVOLVE_CFG = "n = 2\ns = 0.6\np = 1.8\nN = 9\nL = 2.0\ndt = 0.01\nt_end = 0.02\nsnapshot_times = 0.02\n"


@pytest.mark.parametrize("command, mirrored", [
    (["fraclap", "--dims", "8,9", "--scales", "2,2.5", "--s", "0.4"], True),
    (["fraclap", "--dims", "8,9", "--scales", "2,2.5", "--s", "0.4", "--field", "lorentzian"], True),
    (["fracplap", "--dims", "8,9", "--scales", "2,2.5", "--s", "0.4", "--p", "1.7"], True),
    (["fraclap", "--dims", "8,9", "--scales", "2,2.5", "--s", "0.4", "--field", "csv:"], False),
    (["fracplap", "--dims", "8,9", "--scales", "2,2.5", "--s", "0.4", "--p", "1.7", "--field", "csv:"], False),
], ids=["fraclap", "fraclap-lorentzian", "fracplap", "fraclap-csv", "fracplap-csv"])
def test_commands_solve_one_even_block_per_axis_and_odd_ones_only_when_read(
        tmp_path, monkeypatch, command, mirrored):
    """In-process: built-in fields solve one eigh per axis, an asymmetric field one more per axis."""
    from fracspec import cli, write_field_csv

    if command[-1] == "csv:":
        write_field_csv(tmp_path / "in.csv", np.random.default_rng(1).standard_normal((8, 9)))
        command = command[:-1] + [f"csv:{tmp_path / 'in.csv'}"]
    calls = _recorded_eigh(monkeypatch)
    assert cli.main([*command, "--out-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == (2 if mirrored else 4)


def test_evolve_solves_one_even_block(tmp_path, monkeypatch):
    from fracspec import cli

    (tmp_path / "run.cfg").write_text(EVOLVE_CFG)
    calls = _recorded_eigh(monkeypatch)
    assert cli.main(["evolve", "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path)]) == 0
    # both axes share one factor of the line
    assert len(calls) == 1


@pytest.mark.parametrize("dims, solves", [((9, 9), 1), ((8, 9), 2), ((9, 8, 9), 2)])
def test_build_axis_factors_solves_each_node_count_once(dims, solves, monkeypatch):
    calls = _recorded_eigh(monkeypatch)
    factors = build_axis_factors(dims)
    assert len(calls) == solves
    assert tuple(f.N for f in factors) == dims
    # axes with one node count share one factor, so its odd block is solved once for all of them
    assert all((a is b) == (a.N == b.N) for a in factors for b in factors)
    for f in factors:
        f.P_odd
    assert len(calls) == 2 * solves


@pytest.mark.parametrize("name", ["lam", "lam_odd", "P_odd", "Pinv_odd"])
def test_positive_odd_eigenvalue_is_rejected(name, monkeypatch):
    # the odd block is solved on its first read, and checked before any of it is returned
    f = factorize(make_grid(16, 1.0))
    monkeypatch.setattr(np.linalg, "eigh", _eigh_with_last_eigenvalue(1e-17))
    with pytest.raises(PositiveEigenvalue):
        getattr(f, name)


def _eigh_with_last_eigenvalue(value):
    real_eigh = np.linalg.eigh

    def fake(a):
        lam, vecs = real_eigh(a)
        lam[-1] = value
        return lam, vecs

    return fake


def test_leftover_positive_eigenvalue_is_rejected(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _eigh_with_last_eigenvalue(1.0))
    with pytest.raises(PositiveEigenvalue):
        factorize(make_grid(16, 1.0))


def test_tiny_positive_rounding_is_not_forgiven(monkeypatch):
    # a rounding-sized positive eigenvalue outside the kernel must surface,
    # not be hidden
    monkeypatch.setattr(np.linalg, "eigh", _eigh_with_last_eigenvalue(1e-17))
    with pytest.raises(PositiveEigenvalue):
        factorize(make_grid(16, 1.0))


def test_condition_number_identity():
    assert condition_number(np.eye(5)) == 1.0


def test_condition_number_diagonal():
    assert condition_number(np.diag([2.0, 1.0])) == 2.0


def test_condition_number_rejects_non_square():
    with pytest.raises(ValueError):
        condition_number(np.zeros((2, 3)))


def test_condition_number_zero_matrix():
    with pytest.raises(SingularMatrix):
        condition_number(np.zeros((4, 4)))


def test_eigenvector_conditioning_grows_slowly():
    """kappa(P) grows like a modest power of N, far from exponential."""
    kappas = []
    for N in (50, 100, 200):
        f = factorize(make_grid(N, 1.0))
        kappas.append(condition_number(f.P))
    assert kappas[0] < kappas[1] < kappas[2]
    # doubling N should much less than double kappa squared
    assert kappas[2] / kappas[1] < 2.0
    assert kappas[2] < 100.0
