"""LP solver tests against scipy.optimize.linprog and structural invariants."""

import numpy as np
import pytest
from scipy.optimize import linprog

import liftedtrw as lt
from liftedtrw.lpsolve import Basis, InfeasibleError, Row, Simplex

from conftest import build


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
