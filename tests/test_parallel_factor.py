"""End-to-end tests of the simulated distributed factorization and solve:
numerics must match the sequential multifrontal engine across rank counts,
policies, block sizes, and factorization methods."""

import numpy as np
import pytest

from repro.gen import (
    elasticity3d,
    grid2d_laplacian,
    grid3d_laplacian,
    random_spd_sparse,
)
from repro.graph import AdjacencyGraph
from repro.machine import BLUEGENE_P, GENERIC_CLUSTER
from repro.mf import multifrontal_factor, factor_solve
from repro.ordering import amd_order, nested_dissection_order
from repro.parallel import (
    PlanOptions,
    simulate_factorization,
    simulate_solve,
)
from repro.sparse.ops import sym_matvec_lower
from repro.symbolic import analyze
from repro.util.rng import make_rng

MACHINE = GENERIC_CLUSTER


def analyzed(lower, ordering=nested_dissection_order):
    g = AdjacencyGraph.from_symmetric_lower(lower)
    return analyze(lower, ordering(g))


@pytest.fixture(scope="module")
def problem3d():
    lower = grid3d_laplacian(5)
    sym = analyzed(lower)
    seq = multifrontal_factor(sym)
    return lower, sym, seq


class TestFactorNumerics:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16])
    def test_matches_sequential(self, problem3d, p):
        lower, sym, seq = problem3d
        res = simulate_factorization(sym, p, MACHINE, PlanOptions(nb=8))
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-9, atol=1e-9
        )

    @pytest.mark.parametrize("policy", ["2d", "1d", "static"])
    def test_policies_agree(self, problem3d, policy):
        lower, sym, seq = problem3d
        res = simulate_factorization(
            sym, 4, MACHINE, PlanOptions(nb=8, policy=policy)
        )
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-9, atol=1e-9
        )

    @pytest.mark.parametrize("nb", [4, 16, 64])
    def test_block_size_invariant(self, problem3d, nb):
        lower, sym, seq = problem3d
        res = simulate_factorization(sym, 4, MACHINE, PlanOptions(nb=nb))
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-9, atol=1e-9
        )

    def test_ldlt_matches_sequential(self):
        lower = grid3d_laplacian(4)
        sym = analyzed(lower)
        seq = multifrontal_factor(sym, method="ldlt")
        res = simulate_factorization(
            sym, 4, MACHINE, PlanOptions(nb=8), method="ldlt"
        )
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-8, atol=1e-8
        )
        np.testing.assert_allclose(
            res.assemble_diag(), seq.diag, rtol=1e-9, atol=1e-9
        )

    def test_elasticity_matrix(self):
        lower = elasticity3d(3, seed=2)
        sym = analyzed(lower)
        seq = multifrontal_factor(sym)
        res = simulate_factorization(sym, 6, MACHINE, PlanOptions(nb=8))
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-8, atol=1e-8
        )

    def test_random_matrix_amd(self):
        lower = random_spd_sparse(80, avg_degree=5, seed=4)
        sym = analyzed(lower, amd_order)
        seq = multifrontal_factor(sym)
        res = simulate_factorization(sym, 4, MACHINE, PlanOptions(nb=8))
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-8, atol=1e-8
        )

    def test_2d_mesh(self):
        lower = grid2d_laplacian(9)
        sym = analyzed(lower)
        seq = multifrontal_factor(sym)
        res = simulate_factorization(sym, 8, MACHINE, PlanOptions(nb=8))
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-9, atol=1e-9
        )

    def test_deterministic(self, problem3d):
        _, sym, _ = problem3d
        a = simulate_factorization(sym, 4, MACHINE, PlanOptions(nb=8))
        b = simulate_factorization(sym, 4, MACHINE, PlanOptions(nb=8))
        assert a.makespan == b.makespan
        assert a.sim.ledger.n_messages == b.sim.ledger.n_messages
        np.testing.assert_array_equal(a.to_dense_l(), b.to_dense_l())


class TestFactorAccounting:
    def test_flops_close_to_sequential(self, problem3d):
        _, sym, seq = problem3d
        res = simulate_factorization(sym, 4, MACHINE, PlanOptions(nb=8))
        # Blocked distributed kernels count slightly differently from the
        # per-front formula (block-boundary rounding), but totals must stay
        # within ~20%.
        assert res.total_flops == pytest.approx(seq.stats.flops, rel=0.20)

    def test_factor_entries_conserved(self, problem3d):
        _, sym, seq = problem3d
        res = simulate_factorization(sym, 4, MACHINE, PlanOptions(nb=8))
        assert res.factor_entries_by_rank().sum() >= sym.nnz_factor

    def test_p1_no_messages(self, problem3d):
        _, sym, _ = problem3d
        res = simulate_factorization(sym, 1, MACHINE)
        assert res.sim.ledger.n_messages == 0

    def test_message_conservation(self, problem3d):
        _, sym, _ = problem3d
        res = simulate_factorization(sym, 8, MACHINE, PlanOptions(nb=8))
        led = res.sim.ledger
        assert sum(led.sent_by_rank) == led.n_messages
        assert sum(led.recv_by_rank) == led.n_messages
        assert sum(led.bytes_sent_by_rank) == sum(led.bytes_recv_by_rank)

    def test_comm_fraction_bounds(self, problem3d):
        _, sym, _ = problem3d
        res = simulate_factorization(sym, 8, MACHINE, PlanOptions(nb=8))
        assert 0.0 <= res.comm_fraction() <= 1.0

    def test_gflops_positive(self, problem3d):
        _, sym, _ = problem3d
        res = simulate_factorization(sym, 2, MACHINE)
        assert res.gflops > 0
        assert 0 < res.peak_fraction < 1


class TestSolveNumerics:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_residual(self, problem3d, p):
        lower, sym, _ = problem3d
        res = simulate_factorization(sym, p, MACHINE, PlanOptions(nb=8))
        b = make_rng(7).standard_normal(sym.n)
        sol = simulate_solve(res, b)
        r = np.max(np.abs(b - sym_matvec_lower(lower, sol.x)))
        assert r <= 1e-10 * max(1.0, np.max(np.abs(b)))

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_matches_sequential_solve(self, problem3d, p):
        lower, sym, seq = problem3d
        b = make_rng(8).standard_normal(sym.n)
        x_seq = factor_solve(seq, b)
        res = simulate_factorization(sym, p, MACHINE, PlanOptions(nb=8))
        sol = simulate_solve(res, b)
        np.testing.assert_allclose(sol.x, x_seq, rtol=1e-9, atol=1e-10)

    def test_ldlt_solve(self):
        lower = grid3d_laplacian(4)
        sym = analyzed(lower)
        res = simulate_factorization(
            sym, 4, MACHINE, PlanOptions(nb=8), method="ldlt"
        )
        b = make_rng(9).standard_normal(sym.n)
        sol = simulate_solve(res, b)
        r = np.max(np.abs(b - sym_matvec_lower(lower, sol.x)))
        assert r <= 1e-9

    @pytest.mark.parametrize("policy", ["2d", "1d", "static"])
    def test_solve_across_policies(self, problem3d, policy):
        lower, sym, _ = problem3d
        res = simulate_factorization(
            sym, 4, MACHINE, PlanOptions(nb=8, policy=policy)
        )
        b = make_rng(10).standard_normal(sym.n)
        sol = simulate_solve(res, b)
        r = np.max(np.abs(b - sym_matvec_lower(lower, sol.x)))
        assert r <= 1e-9

    def test_solve_flops_lower_than_factor(self, problem3d):
        _, sym, _ = problem3d
        res = simulate_factorization(sym, 4, MACHINE, PlanOptions(nb=8))
        b = np.ones(sym.n)
        sol = simulate_solve(res, b)
        assert sol.total_flops < res.total_flops


class TestScalingBehaviour:
    """Shape-level assertions: the qualitative claims the paper's plots
    make must hold on the simulated machine."""

    @pytest.fixture(scope="class")
    def big(self):
        lower = grid3d_laplacian(8)
        sym = analyzed(lower)
        return sym

    def test_speedup_with_ranks(self, big):
        t1 = simulate_factorization(big, 1, BLUEGENE_P, PlanOptions(nb=32)).makespan
        t8 = simulate_factorization(big, 8, BLUEGENE_P, PlanOptions(nb=32)).makespan
        assert t8 < t1

    def test_2d_beats_1d_at_scale(self, big):
        opts2 = PlanOptions(nb=32, policy="2d")
        opts1 = PlanOptions(nb=32, policy="1d")
        t2d = simulate_factorization(big, 16, BLUEGENE_P, opts2).makespan
        t1d = simulate_factorization(big, 16, BLUEGENE_P, opts1).makespan
        assert t2d <= t1d * 1.05  # 2D never meaningfully worse; usually better

    def test_subcube_beats_static(self, big):
        t_sub = simulate_factorization(
            big, 16, BLUEGENE_P, PlanOptions(nb=32, policy="2d")
        ).makespan
        t_static = simulate_factorization(
            big, 16, BLUEGENE_P, PlanOptions(nb=32, policy="static")
        ).makespan
        assert t_sub < t_static

    def test_comm_fraction_grows_with_p(self, big):
        f2 = simulate_factorization(big, 2, BLUEGENE_P, PlanOptions(nb=32)).comm_fraction()
        f16 = simulate_factorization(big, 16, BLUEGENE_P, PlanOptions(nb=32)).comm_fraction()
        assert f16 > f2

    def test_solve_scales_worse_than_factor(self, big):
        res1 = simulate_factorization(big, 1, BLUEGENE_P, PlanOptions(nb=32))
        res8 = simulate_factorization(big, 8, BLUEGENE_P, PlanOptions(nb=32))
        b = np.ones(big.n)
        s1 = simulate_solve(res1, b).makespan
        s8 = simulate_solve(res8, b).makespan
        factor_speedup = res1.makespan / res8.makespan
        solve_speedup = s1 / s8
        assert solve_speedup < factor_speedup

    def test_hybrid_reduces_messages(self, big):
        """Fewer ranks at equal cores -> fewer messages (the SMP story)."""
        r16 = simulate_factorization(
            big, 16, BLUEGENE_P, PlanOptions(nb=32), threads_per_rank=1
        )
        r4 = simulate_factorization(
            big, 4, BLUEGENE_P, PlanOptions(nb=32), threads_per_rank=4
        )
        assert r4.sim.ledger.n_messages < r16.sim.ledger.n_messages


class TestPinnedCommunication:
    """The rank programs' communication, pinned so that any change to
    them fails loudly instead of drifting. Columns: method, ranks, factor
    messages, bytes and makespan [s], solve messages and bytes. Cholesky
    and LDLᵀ run the 8×8 Laplacian, LU the 8×8 convection-diffusion
    matrix of ``lu_problem``; ``PlanOptions(nb=8)`` on GENERIC_CLUSTER."""

    TABLE = [
        ("cholesky", 2, 6, 2152, 1.1695848075082812e-05, 15, 2024),
        ("cholesky", 4, 26, 8204, 3.125810757575758e-05, 60, 7272),
        ("cholesky", 8, 66, 16984, 6.529168863636367e-05, 168, 19640),
        ("ldlt", 2, 8, 2408, 1.661121474174948e-05, 15, 2024),
        ("ldlt", 4, 35, 9428, 4.545170757575757e-05, 60, 7272),
        ("ldlt", 8, 95, 20552, 9.767568863636363e-05, 168, 19640),
        ("lu", 2, 9, 4276, 1.7634896150165625e-05, 12, 1384),
        ("lu", 4, 36, 13096, 4.1163081818181826e-05, 50, 5424),
        ("lu", 8, 95, 27556, 8.48410772727273e-05, 138, 15088),
    ]

    @pytest.mark.parametrize("row", TABLE, ids=lambda r: f"{r[0]}-p{r[1]}")
    def test_messages_bytes_makespan(self, row, request):
        method, p, f_msgs, f_bytes, f_makespan, s_msgs, s_bytes = row
        if method == "lu":
            _, seq = request.getfixturevalue("lu_problem")
            sym, lu_inputs = seq.sym, {"permuted_full": seq.permuted_full}
        else:
            sym, lu_inputs = analyzed(grid2d_laplacian(8)), {}
        res = simulate_factorization(
            sym, p, MACHINE, PlanOptions(nb=8), method=method, **lu_inputs
        )
        sres = simulate_solve(res, np.ones(sym.n))
        assert res.sim.ledger.n_messages == f_msgs
        assert res.sim.ledger.total_bytes == f_bytes
        assert res.makespan == pytest.approx(f_makespan, rel=1e-12)
        assert sres.sim.ledger.n_messages == s_msgs
        assert sres.sim.ledger.total_bytes == s_bytes
