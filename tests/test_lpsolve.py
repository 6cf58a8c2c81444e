"""LP solver tests against scipy.optimize.linprog and structural invariants."""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

import liftedtrw as lt
from liftedtrw import trw
from liftedtrw.lpsolve import REFACTOR_EVERY, Basis, InfeasibleError, Row, Simplex

from conftest import build, expand_rho


def scipy_reference(n, rows, c):
    """Reference optimum via scipy (HiGHS), same row conventions."""
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for row in rows:
        dense = np.zeros(n)
        for j, v in row.coeffs:
            dense[j] = v
        if row.rel == "=":
            a_eq.append(dense)
            b_eq.append(row.rhs)
        else:
            a_ub.append(dense)
            b_ub.append(row.rhs)
    res = linprog(-np.asarray(c),
                  A_eq=np.array(a_eq) if a_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  bounds=[(0, None)] * n, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def random_local_lp(seed, n_points=6):
    """A random bounded LP: a simplex-constrained block plus couplings."""
    rng = np.random.default_rng(seed)
    n = rng.integers(4, 9)
    rows = [Row.make({j: 1.0 for j in range(n)}, "=", 1.0)]
    for _ in range(rng.integers(1, 4)):
        coeffs = {int(j): float(rng.normal())
                  for j in rng.choice(n, size=3, replace=False)}
        rows.append(Row.make(coeffs, "<=", float(abs(rng.normal()) + 0.2)))
    c = rng.normal(size=n)
    return int(n), rows, c


class TestSolve:
    def test_trivial_box(self):
        res = Simplex(1, [Row.make({0: 1.0}, "<=", 1.0)]).solve(np.array([1.0]))
        assert abs(res.objective - 1.0) < 1e-12
        assert abs(res.x[0] - 1.0) < 1e-12

    def test_duplicate_columns_are_summed(self):
        row = Row.make([(0, 1.0), (0, 1.0), (1, 2.0), (1, -2.0)], "<=", 1.0)
        assert row.coeffs == ((0, 2.0),)
        res = Simplex(1, [row]).solve(np.array([1.0]))
        assert res.x[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps_match_scipy(self, seed):
        n, rows, c = random_local_lp(seed)
        res = Simplex(n, rows).solve(c)
        ref = scipy_reference(n, rows, c)
        assert abs(res.objective - ref) < 1e-8

    def test_lifted_local_lp_matches_ground_lp(self, ring_model, ring_lifted):
        """Maximizing a symmetric objective over the lifted local polytope
        equals the ground local LP optimum."""
        lg = ring_lifted
        g = ring_model
        cs = lt.lifted_local(lg)
        theta_bar = lg.lifted_theta
        res = Simplex(lg.n_vars, cs.rows, lg.structural_zero_var).solve(theta_bar)

        from liftedtrw.symmetry import trivial_lifting
        lg0 = trivial_lifting(g)
        cs0 = lt.lifted_local(lg0)
        ref = scipy_reference(lg0.n_vars, cs0.rows, g.theta_vector())
        assert abs(res.objective - ref) < 1e-7

    def test_infeasible_detected(self):
        rows = [Row.make({0: 1.0}, "=", 1.0), Row.make({0: 1.0}, "=", 2.0)]
        with pytest.raises(InfeasibleError):
            Simplex(1, rows).solve(np.array([1.0]))

    def test_pricing_rounds_are_bounded(self, monkeypatch):
        """With an inverse that pivots leave stale, pricing picks the same
        columns forever; the solve raises after 50 (m + n) rounds."""
        n, rows, c = random_local_lp(5)
        monkeypatch.setattr(Simplex, "_pivot", lambda self, binv, r, d: None)
        simplex = Simplex(n, rows)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=f"made {50 * (simplex.m + n)} pricing rounds"):
            simplex.solve(c)
        assert time.perf_counter() - t0 < 5.0

    def test_fixed_zero_variables_stay_zero(self):
        rows = [Row.make({0: 1.0, 1: 1.0}, "<=", 1.0)]
        res = Simplex(2, rows, np.array([False, True])).solve(np.array([1.0, 2.0]))
        assert res.x[1] == 0.0
        assert abs(res.objective - 1.0) < 1e-12


class TestWarmStart:
    def test_recut_solve_matches_cold(self):
        n, rows, c = random_local_lp(3)
        simplex = Simplex(n, rows, None)
        res = simplex.solve(np.asarray(c))
        # cut off the current optimum without emptying the feasible set
        top = int(np.argmax(res.x))
        cut = Row.make({top: 1.0}, "<=", 0.5 * res.x[top])
        simplex.add_rows([cut])
        warm = simplex.solve(np.asarray(c))
        cold = Simplex(n, rows + [cut], None).solve(np.asarray(c))
        assert abs(warm.objective - cold.objective) < 1e-9
        assert warm.objective <= res.objective + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_perturbed_objectives_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, rows, c = random_local_lp(seed)
        simplex = Simplex(n, rows, None)
        basis = None
        for _ in range(20):
            c2 = c + 0.1 * rng.normal(size=n)
            warm = simplex.solve(c2, warm=basis)
            basis = warm.basis
            cold = Simplex(n, rows, None).solve(c2)
            assert abs(warm.objective - cold.objective) < 1e-8

    def test_warm_with_stale_basis_falls_back(self):
        n, rows, c = random_local_lp(7)
        simplex = Simplex(n, rows, None)
        bogus = Basis(tuple(range(len(rows))))
        res = simplex.solve(np.asarray(c), warm=bogus)
        ref = scipy_reference(n, rows, c)
        assert abs(res.objective - ref) < 1e-8


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_solution_feasibility_and_reduced_costs(self, seed):
        n, rows, c = random_local_lp(seed + 50)
        simplex = Simplex(n, rows, None)
        res = simplex.solve(np.asarray(c))
        x = res.x
        assert (x >= -1e-8).all()
        for row in rows:
            val = sum(v * x[j] for j, v in row.coeffs)
            if row.rel == "=":
                assert abs(val - row.rhs) < 1e-8
            else:
                assert val <= row.rhs + 1e-8
        # optimality: no feasible direction improves beyond tolerance
        ref = scipy_reference(n, rows, c)
        assert res.objective >= ref - 1e-8

    def test_deterministic(self):
        n, rows, c = random_local_lp(11)
        a = Simplex(n, rows).solve(c)
        b = Simplex(n, rows).solve(c)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.basis == b.basis

    def test_crash_basis_accepted_on_local_system(self):
        g = build("complete_graph", 6, -1.0)
        lg = lt.compute_orbits(g)
        system = lt.build_outer_system(lg, "local")
        assert system.start_basis is not None
        simplex = Simplex(system.n_vars, system.cs.rows, system.fixed_zero)
        res = simplex.solve(lg.lifted_theta, warm=Basis(tuple(system.start_basis)))
        ref = scipy_reference(system.n_vars, system.cs.rows, lg.lifted_theta)
        assert abs(res.objective - ref) < 1e-8


def ground_local_lp():
    """The ground local LP of ``complete_graph`` n=12 (210 rows, most with
    right-hand side 0), its objective and its crash basis."""
    from liftedtrw.symmetry import trivial_lifting
    lg0 = trivial_lifting(build("complete_graph", 12, -1.0))
    system = lt.build_outer_system(lg0, "local")
    return system, lg0.lifted_theta, Basis(tuple(system.start_basis))


class DenseReference(Simplex):
    """The dense rank-1 update of the whole inverse and an unconditional
    refactorization every ``REFACTOR_EVERY`` updates: the sparse update and
    the drift-checked refactorization must reproduce it bit for bit."""

    def _pivot(self, binv, r, d):
        piv = d[r]
        binv_r = binv[r].copy()
        binv -= np.outer(d / piv, binv_r)
        binv[r] = binv_r / piv
        self._updates += 1

    def _refactor_due(self, basis, binv, optimal):
        return not optimal and self._updates >= REFACTOR_EVERY


def assert_same_solve(a, b):
    assert a.x.tobytes() == b.x.tobytes()
    assert a.basis == b.basis
    assert a.iterations == b.iterations


class TestDenseReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps(self, seed):
        n, rows, c = random_local_lp(seed)
        assert_same_solve(Simplex(n, rows).solve(c), DenseReference(n, rows).solve(c))

    @pytest.mark.parametrize("seed", range(5))
    def test_warm_start_sequences(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, rows, c = random_local_lp(seed)
        fast, ref = Simplex(n, rows), DenseReference(n, rows)
        basis = None
        for _ in range(20):
            c2 = c + 0.1 * rng.normal(size=n)
            a = fast.solve(c2, warm=basis)
            assert_same_solve(a, ref.solve(c2, warm=basis))
            basis = a.basis

    @pytest.mark.parametrize("seed", range(5))
    def test_after_add_rows(self, seed):
        n, rows, c = random_local_lp(seed)
        fast, ref = Simplex(n, rows), DenseReference(n, rows)
        res = fast.solve(c)
        assert_same_solve(res, ref.solve(c))
        top = int(np.argmax(res.x))
        cut = Row.make({top: 1.0}, "<=", 0.5 * res.x[top])
        fast.add_rows([cut])
        ref.add_rows([cut])
        assert_same_solve(fast.solve(c), ref.solve(c))

    def test_ground_warm_start_sequence(self):
        system, c, basis = ground_local_lp()
        assert len(system.cs.rows) >= 64   # the nonzero-column update
        rng = np.random.default_rng(7)
        fast, ref = (cls(system.n_vars, system.cs.rows, system.fixed_zero)
                     for cls in (Simplex, DenseReference))
        updates = 0
        for _ in range(12):
            c2 = c + 0.5 * rng.normal(size=c.size)
            a = fast.solve(c2, warm=basis)
            assert_same_solve(a, ref.solve(c2, warm=basis))
            updates += a.iterations
            basis = a.basis
        assert updates > REFACTOR_EVERY

    def test_ground_after_add_rows(self):
        system, c, basis = ground_local_lp()
        fast, ref = (cls(system.n_vars, system.cs.rows, system.fixed_zero)
                     for cls in (Simplex, DenseReference))
        res = fast.solve(c, warm=basis)
        assert_same_solve(res, ref.solve(c, warm=basis))
        top = np.argsort(-res.x)[:3]
        cuts = [Row.make({int(j): 1.0}, "<=", 0.5 * res.x[j]) for j in top]
        fast.add_rows(cuts)
        ref.add_rows(cuts)
        c2 = c + 0.1
        assert_same_solve(fast.solve(c2, warm=res.basis), ref.solve(c2, warm=res.basis))

    def test_ground_inverse_bytes(self):
        """Each update of the inverse equals the dense update byte for byte,
        over a cold solve and a warm-started sequence."""
        class Checked(Simplex):
            def _pivot(self, binv, r, d):
                dense, updates = binv.copy(), self._updates
                DenseReference._pivot(self, dense, r, d)
                self._updates = updates
                super()._pivot(binv, r, d)
                assert binv.tobytes() == dense.tobytes()
                self.checked += 1

        system, c, _ = ground_local_lp()
        simplex = Checked(system.n_vars, system.cs.rows, system.fixed_zero)
        simplex.checked = 0
        rng = np.random.default_rng(8)
        basis = None
        for _ in range(6):
            basis = simplex.solve(c + 0.5 * rng.normal(size=c.size), warm=basis).basis
        assert simplex.m >= 64 and simplex.checked > REFACTOR_EVERY

    def test_ground_trw(self, monkeypatch):
        g = build("complete_graph", 12, -1.0)
        lg = lt.compute_orbits(g)
        rho_g = expand_rho(lg, lt.init_rho_uniform(lg))
        settings = dict(outer="local", tol=1e-4, max_iters=15, polish=False)
        res = lt.ground_trw(g, rho_g, **settings)
        monkeypatch.setattr(trw, "Simplex", DenseReference)
        ref = lt.ground_trw(g, rho_g, **settings)
        assert np.float64(res.bound).tobytes() == np.float64(ref.bound).tobytes()
        assert res.lp_pivots == ref.lp_pivots
        # the reference did refactorize on its cadence; the drift checks did not
        assert res.stats["lp_refactorizations"] < ref.stats["lp_refactorizations"]


class TestDrift:
    def test_clean_inverse_kept(self):
        n, rows, c = random_local_lp(3)
        simplex = Simplex(n, rows)
        first = simplex.solve(c)
        count = simplex.refactorizations
        simplex.solve(c, warm=first.basis)
        simplex.solve(-c, warm=first.basis)
        assert simplex.refactorizations == count

    def test_drifted_inverse_refactorized_at_optimality(self):
        n, rows, c = random_local_lp(3)
        simplex = Simplex(n, rows)
        first = simplex.solve(c)
        count = simplex.refactorizations
        simplex._binv[0, 0] += 1e-6   # b[0] = 1, so B (B^-1 b) moves off b
        res = simplex.solve(c, warm=first.basis)
        assert simplex.refactorizations == count + 1
        cold = Simplex(n, rows).solve(c)
        assert res.x.tobytes() == cold.x.tobytes()

    def test_drift_in_zero_rhs_column_refactorized(self):
        """An error in a column of the inverse whose right-hand side is 0
        does not move ``B^-1 b``; the drift check must still see it."""
        system, c, basis = ground_local_lp()
        simplex = Simplex(system.n_vars, system.cs.rows, system.fixed_zero)
        first = simplex.solve(c, warm=basis)
        j = int(np.flatnonzero(simplex.b == 0.0)[0])
        i = int(np.argmax(np.abs(simplex._binv[:, j])))
        count = simplex.refactorizations
        simplex._binv[i, j] += 1e-6
        res = simplex.solve(c, warm=first.basis)
        assert simplex.refactorizations == count + 1
        cold = Simplex(system.n_vars, system.cs.rows, system.fixed_zero).solve(c, warm=basis)
        assert res.x.tobytes() == cold.x.tobytes()
