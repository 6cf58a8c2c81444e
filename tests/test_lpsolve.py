"""LP solver tests against scipy.optimize.linprog and structural invariants."""

import sys
import time

import numpy as np
import pytest
from scipy.optimize import linprog

import liftedtrw as lt
from liftedtrw import trw
from liftedtrw.lpsolve import (OPT_TOL, PIVOT_TOL, REFACTOR_EVERY, InfeasibleError, Row, Simplex,
                               UnboundedError)

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


def random_large_lp(seed, n=90):
    """A random bounded LP of 71 rows, above the row count where the
    inverse update gathers columns: a simplex row, 60 random ``<=`` rows
    and 10 covering rows stored negated (negative slack signs)."""
    rng = np.random.default_rng(seed)
    rows = [Row.make({j: 1.0 for j in range(n)}, "=", 1.0)]
    for _ in range(60):
        coeffs = {int(j): float(rng.normal()) for j in rng.choice(n, size=4, replace=False)}
        rows.append(Row.make(coeffs, "<=", float(abs(rng.normal()) + 0.2)))
    for _ in range(10):
        pair = rng.choice(n, size=2, replace=False)
        rows.append(Row.make({int(j): -1.0 for j in pair}, "<=", -0.01))
    return n, rows, rng.normal(size=n)


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

    def test_direct_row_with_repeated_column_is_summed(self):
        """A Row built without Row.make may list a column twice; the
        constraint matrix sums the coefficients (2 x0 <= 1)."""
        res = Simplex(1, [Row(((0, 1.0), (0, 1.0)), "<=", 1.0)]).solve([1.0])
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
        rows = lt.lifted_local(lg)
        theta_bar = lg.lifted_theta
        res = Simplex(lg.n_vars, rows, lg.structural_zero_var).solve(theta_bar)

        from liftedtrw.symmetry import trivial_lifting
        lg0 = trivial_lifting(g)
        rows0 = lt.lifted_local(lg0)
        ref = scipy_reference(lg0.n_vars, rows0, g.theta_vector())
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


# LPs on which Dantzig's rule cycles through degenerate pivots without end:
# rows, objective and optimum.  Chvatal, Linear Programming (1983), ch. 3;
# Beale, Cycling in the dual simplex algorithm (1955).
CYCLING_LPS = {
    "chvatal": ([Row.make({0: 0.5, 1: -5.5, 2: -2.5, 3: 9.0}, "<=", 0.0),
                 Row.make({0: 0.5, 1: -1.5, 2: -0.5, 3: 1.0}, "<=", 0.0),
                 Row.make({0: 1.0}, "<=", 1.0)],
                [10.0, -57.0, -9.0, -24.0], [1.0, 0.0, 1.0, 0.0]),
    "beale": ([Row.make({0: 0.25, 1: -60.0, 2: -0.04, 3: 9.0}, "<=", 0.0),
               Row.make({0: 0.5, 1: -90.0, 2: -0.02, 3: 3.0}, "<=", 0.0),
               Row.make({2: 1.0}, "<=", 1.0)],
              [0.75, -150.0, 0.02, -6.0], [0.04, 0.0, 1.0, 0.0]),
}


def _bland_flags(run, cls=Simplex):
    """``run()``, and per ``cls._iterate`` call whether it ended in Bland's
    rule, read off its frame as it returns."""
    flags = []

    def trace(frame, event, arg):
        if frame.f_code is not cls._iterate.__code__:
            return None

        def local(frame, event, arg):
            if event == "return":
                flags.append(frame.f_locals["bland"])
            return local
        return local

    sys.settrace(trace)
    try:
        out = run()
    finally:
        sys.settrace(None)
    return out, flags


def _phase1_bases(monkeypatch):
    """The list that gets, per ``_phase1``, its basis after the pricing
    rounds and the basis it returns after the artificial clean-up."""
    bases = []
    iterate, phase1 = Simplex._iterate, Simplex._phase1

    def spy_iterate(self, c_struct, basis, binv, phase, xb=None):
        out = iterate(self, c_struct, basis, binv, phase, xb)
        if phase == 1:
            bases.append(out[0].copy())
        return out

    def spy_phase1(self):
        out = phase1(self)
        bases.append(out[0].copy())
        return out

    monkeypatch.setattr(Simplex, "_iterate", spy_iterate)
    monkeypatch.setattr(Simplex, "_phase1", spy_phase1)
    return bases


# LPs whose phase 1 ends with an artificial basic: rows, objective,
# optimum, whether the clean-up keeps an artificial basic, a row added
# afterwards and the objective solved after it
CLEANUP_LPS = {
    # the second row repeats the first: its artificial stays basic at zero
    "redundant-row": ([Row.make({0: 1.0, 1: 1.0}, "=", 1.0), Row.make({0: 2.0, 1: 2.0}, "=", 2.0),
                       Row.make({0: 1.0}, "<=", 0.7)], [1.0, 0.0], [0.7, 0.3], True,
                      Row.make({1: 1.0}, "<=", 0.5), [0.0, 1.0]),
    # x1 = 0 leaves an artificial basic at zero on a row that is not
    # redundant: it is pivoted out for a structural column
    "pivot-out": ([Row.make({1: -1.0}, "=", 0.0), Row.make({0: 1.0, 1: 1.0}, "=", 1.0),
                   Row.make({0: 1.0, 1: 1.0}, "<=", 1.0)], [1.0, 0.0], [1.0, 0.0], False,
                  Row.make({0: 1.0}, "<=", 1.5), [-1.0, 0.0]),
}


class TestDegenerate:
    @pytest.mark.parametrize("name", sorted(CYCLING_LPS))
    def test_cycling_lp_switches_to_bland(self, name):
        """Past 10 (m + n) degenerate pivots in a row pricing takes the
        lowest improving column, which stops the cycle at the optimum."""
        rows, c, x_opt = CYCLING_LPS[name]
        simplex = Simplex(4, rows)
        res, flags = _bland_flags(lambda: simplex.solve(np.array(c)))
        assert flags == [False, True]  # phase 1 prices once; phase 2 cycles until the switch
        assert res.iterations > 10 * (simplex.m + simplex.n)
        np.testing.assert_allclose(res.x, x_opt, atol=1e-12)
        assert abs(res.objective - scipy_reference(4, rows, c)) < 1e-9

    @pytest.mark.parametrize("name", CLEANUP_LPS)
    def test_phase1_artificial_cleanup(self, monkeypatch, name):
        rows, c, x_opt, kept, added, c2 = CLEANUP_LPS[name]
        bases = _phase1_bases(monkeypatch)
        simplex = Simplex(2, rows)
        res = simplex.solve(np.array(c))
        after_rounds, cleaned = bases
        assert simplex._art_code[after_rounds].any()
        assert simplex._art_code[cleaned].any() == kept
        np.testing.assert_allclose(res.x, x_opt, atol=1e-12)
        assert abs(res.objective - scipy_reference(2, rows, c)) < 1e-9
        # a row added afterwards is solved from the held basis, not phase 1
        simplex.add_rows([added])
        res = simplex.solve(np.array(c2))
        assert len(bases) == 2
        assert abs(res.objective - scipy_reference(2, rows + [added], c2)) < 1e-9


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
        for _ in range(20):
            c2 = c + 0.1 * rng.normal(size=n)
            warm = simplex.solve(c2)
            cold = Simplex(n, rows, None).solve(c2)
            assert abs(warm.objective - cold.objective) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_add_rows_matrix_matches_fresh_build(self, seed):
        """Row batches appended one by one, negative right-hand sides and
        equality rows included, leave the bytes of a build from all rows."""
        n, rows, _c = random_local_lp(seed)
        rng = np.random.default_rng(200 + seed)
        extra = [Row.make({int(j): float(rng.normal()) for j in rng.choice(n, 2, replace=False)},
                          rel, float(rhs))
                 for rel, rhs in (("<=", -0.3), ("<=", 0.7), ("=", 0.0), ("=", -0.2))]
        lp = Simplex(n, rows[:1], np.arange(n) == 0)
        for batch in (rows[1:], extra[:1], extra[1:], []):
            lp.add_rows(batch)
        fresh = Simplex(n, rows + extra, np.arange(n) == 0)
        assert lp.m == fresh.m == len(rows) + len(extra)
        for name in ("A", "b", "slack_sign", "_unit_coef", "_art_code", "fixed_zero"):
            got, want = getattr(lp, name), getattr(fresh, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name
        assert lp.A.flags.f_contiguous and fresh.A.flags.f_contiguous
        assert (lp.slack_sign < 0).any() and (lp.slack_sign == 0).sum() >= 3

    def test_warm_with_stale_basis_falls_back(self):
        n, rows, c = random_local_lp(7)
        bogus = tuple(range(len(rows)))
        simplex = Simplex(n, rows, None, bogus)
        res = simplex.solve(np.asarray(c))
        ref = scipy_reference(n, rows, c)
        assert abs(res.objective - ref) < 1e-8

    def test_constructor_basis_survives_add_rows(self, monkeypatch):
        """Rows added before the first solve extend the crash basis with
        their slacks: the solve starts from it without phase 1 and returns
        the bytes of a fresh simplex of all rows given the extended basis."""
        system, c, crash = ground_local_lp()
        n = system.n_vars
        lp = Simplex(n, system.rows, system.fixed_zero, crash)
        cuts = [Row.make({j: 1.0, j + 1: 1.0}, "<=", 1.5) for j in range(0, 9, 3)]
        lp.add_rows(cuts)
        extended = np.concatenate([crash, n + 2 * np.arange(len(crash), lp.m)])
        assert lp._basis.tobytes() == extended.tobytes()
        fresh = Simplex(n, system.rows + cuts, system.fixed_zero, extended)

        def no_phase1(self):
            raise AssertionError("phase 1 ran")

        monkeypatch.setattr(Simplex, "_phase1", no_phase1)
        a, b = lp.solve(c), fresh.solve(c)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.iterations == b.iterations
        assert abs(a.objective - scipy_reference(n, system.rows + cuts, c)) < 1e-8

    @pytest.mark.parametrize("codes", [
        lambda n, m: range(m - 1),              # one code short
        lambda n, m: range(m + 1),              # one code too many
        lambda n, m: [n + 2 * m] + list(range(m - 1)),   # past the last artificial
        lambda n, m: [-1] + list(range(m - 1)),
    ])
    def test_malformed_basis_raises(self, codes):
        n, rows, _c = random_local_lp(7)
        with pytest.raises(ValueError, match="basis"):
            Simplex(n, rows, None, list(codes(n, len(rows))))

    @pytest.mark.parametrize("objective", [
        [1.0],                  # would broadcast through every pricing round
        [1.0, 1.0],
        [[1.0, 1.0, 1.0]],
        1.0,
        [1.0, np.nan, 1.0],     # prices nothing: the start vertex, objective nan
        [np.inf, 0.0, 0.0],
        [0.0, 0.0, -np.inf],
    ])
    def test_malformed_objective_raises(self, objective):
        simplex = Simplex(3, [Row.make({0: 1, 1: 1, 2: 1}, "<=", 1)])
        with pytest.raises(ValueError, match="objective"):
            simplex.solve(objective)
        assert simplex.solve([1.0, 2.0, 0.5]).x.tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("mask", [[True], [False] * 4, [[False] * 3], True])
    def test_malformed_fixed_zero_raises(self, mask):
        """A mask that is not one flag per variable would pin other columns
        than meant."""
        with pytest.raises(ValueError, match="fixed_zero"):
            Simplex(3, [Row.make({0: 1, 1: 1, 2: 1}, "<=", 1)], mask)

    @pytest.mark.parametrize("row", [
        Row.make({0: 1.0, 1: np.nan}, "<=", 1.0),   # gave x = 0 without a word
        Row.make({0: 1.0, 1: 1.0}, "<=", np.inf),   # gave x = (0, inf)
        Row.make({0: 1.0, 1: 1.0}, "<=", np.nan),   # IndexError in the ratio test
    ], ids=["nan-coefficient", "inf-rhs", "nan-rhs"])
    def test_non_finite_row_raises(self, row):
        """A row with a non-finite entry is named, at construction and by
        ``add_rows``, which then leaves the LP and its basis as they were."""
        assert_row_rejected(row, "row 1 has a non-finite")

    @pytest.mark.parametrize("row, match", [
        # max x0 s.t. x0 >= 0.5, x0 <= 2 was solved as x0 = 0.5
        (Row.make({0: 1.0}, ">=", 0.5), "row 1 has relation '>='"),
        # written onto the last column
        (Row.make({-1: 1.0}, "<=", 1.0), r"row 1 has column -1 outside \[0, 2\)"),
        # a bare IndexError
        (Row.make({0: 1.0, 2: 1.0}, "<=", 1.0), r"row 1 has column 2 outside \[0, 2\)"),
    ], ids=["relation", "column-minus-1", "column-n"])
    def test_malformed_row_raises(self, row, match):
        """A row of another relation than ``=`` or ``<=``, or with a column
        outside ``[0, n)``, is named, at construction and by ``add_rows``,
        which then leaves the LP and its basis as they were."""
        assert_row_rejected(row, match)


class TestRow:
    def test_row_is_its_own_key(self):
        """Rows of one constraint, built from a dict or from pairs in another
        order with a column repeated, are equal and hash alike, so a set or
        a dict of rows holds the constraint once."""
        a = Row.make({3: 1.0, 0: -1.0, 7: 0.5}, "<=", 1.0)
        b = Row.make([(7, 0.25), (0, -1.0), (3, 1.0), (7, 0.25)], "<=", 1)
        assert a.coeffs == ((0, -1.0), (3, 1.0), (7, 0.5))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and list(dict.fromkeys([a, b, a])) == [a]
        assert a != Row.make({3: 1.0, 0: -1.0, 7: 0.5}, "=", 1.0)
        assert a != Row.make({3: 1.0, 0: -1.0, 7: 0.5}, "<=", 2.0)

    def test_one_ulp_is_another_row(self):
        """Equality is exact: a coefficient or right-hand side one ulp away
        gives a different row."""
        a = Row.make({0: 0.1, 1: 1.0}, "<=", 1.0)
        for other in (Row.make({0: np.nextafter(0.1, 1.0), 1: 1.0}, "<=", 1.0),
                      Row.make({0: 0.1, 1: np.nextafter(1.0, 0.0)}, "<=", 1.0),
                      Row.make({0: 0.1, 1: 1.0}, "<=", np.nextafter(1.0, 2.0))):
            assert other != a and len({a, other}) == 2


def assert_row_rejected(row, match):
    """``row`` raises ``ValueError`` matching ``match`` as the second row of
    a two-variable LP, and passed to ``add_rows`` after a solve, which then
    leaves the matrix, the basis and the next solve as they were."""
    held = Row.make({0: 1.0, 1: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError, match=match):
        Simplex(2, [held, row])
    simplex = Simplex(2, [held])
    assert simplex.solve([1.0, 2.0]).x.tolist() == [0.0, 1.0]
    before = (simplex.m, simplex.A.tobytes(), simplex.b.tobytes(),
              simplex.slack_sign.tobytes(), simplex._basis.tobytes())
    with pytest.raises(ValueError, match=match):
        simplex.add_rows([row])
    assert (simplex.m, simplex.A.tobytes(), simplex.b.tobytes(),
            simplex.slack_sign.tobytes(), simplex._basis.tobytes()) == before
    assert simplex.solve([1.0, 2.0]).x.tolist() == [0.0, 1.0]


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
        lp_a = Simplex(n, rows)
        a = lp_a.solve(c)
        lp_b = Simplex(n, rows)
        b = lp_b.solve(c)
        np.testing.assert_array_equal(a.x, b.x)
        assert lp_a._basis.tobytes() == lp_b._basis.tobytes()

    def test_crash_basis_accepted_on_local_system(self):
        g = build("complete_graph", 6, -1.0)
        lg = lt.compute_orbits(g)
        system = lt.build_outer_system(lg, "local")
        assert system.start_basis is not None
        simplex = Simplex(system.n_vars, system.rows, system.fixed_zero,
                          system.start_basis)
        res = simplex.solve(lg.lifted_theta)
        ref = scipy_reference(system.n_vars, system.rows, lg.lifted_theta)
        assert abs(res.objective - ref) < 1e-8


def ground_local_lp():
    """The ground local LP of ``complete_graph`` n=12 (210 rows, most with
    right-hand side 0), its objective and its crash basis."""
    from liftedtrw.symmetry import trivial_lifting
    lg0 = trivial_lifting(build("complete_graph", 12, -1.0))
    system = lt.build_outer_system(lg0, "local")
    return system, lg0.lifted_theta, np.array(system.start_basis)


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


class ParentPricing(Simplex):
    """The same pricing arithmetic in full-length passes: a ratio test over
    every row through two ``np.where``, the update of ``binv[:, nz]``
    broadcast across the nonzero columns, the fixed-zero mask and the slack
    signs gathered every round, and ``binv @ b`` recomputed at the start of
    every ``_iterate`` (the ``xb`` that ``solve`` hands over is ignored).
    ``Simplex`` must reproduce it bit for bit."""

    def _pivot(self, binv, r, d):
        piv = d[r]
        binv_r = binv[r].copy()
        if self.m >= 64:
            nz = np.flatnonzero(binv_r)
            binv[:, nz] -= (d / piv)[:, None] * binv_r[nz]
        else:
            binv -= (d / piv)[:, None] * binv_r
        binv[r] = binv_r / piv
        self._updates += 1

    def _iterate(self, c_struct, basis, binv, phase, xb=None):
        m = self.m
        xb = binv @ self.b
        xb[np.abs(xb) < 1e-12] = 0.0
        degenerate_count = 0
        bland = False
        bland_threshold = 10 * (m + self.n)
        # measured solves take at most 0.56 (m + n) rounds; past the budget a
        # corrupted inverse or cycling would spin without end
        budget = 50 * (m + self.n)
        iters = 0
        cb = self._objvec(basis, c_struct, phase)
        has_slack = self.slack_sign.nonzero()[0]
        cs = c_struct if phase == 2 else np.zeros(self.n)
        # the pivot loop calls array methods, not np.argmax and np.nonzero,
        # whose wrappers cost about 1 us a call: 8% of the LP time on LPs of
        # a few dozen rows
        while True:
            iters += 1
            if iters > budget:
                raise RuntimeError(f"simplex phase {phase} made {budget} pricing rounds "
                                   f"without reaching optimality (m={m}, n={self.n})")
            y = cb @ binv
            rc = cs - y @ self.A
            rc[self.fixed_zero] = -np.inf
            best_q = -1
            best_rc = OPT_TOL
            if bland:
                cand = np.nonzero(rc > OPT_TOL)[0]
                if cand.size:
                    best_q = int(cand[0])
                    best_rc = rc[best_q]
            else:
                q = int(rc.argmax())
                if rc[q] > best_rc:
                    best_q, best_rc = q, rc[q]
            # slack columns: reduced cost is -y_i * sign_i
            if has_slack.size:
                rs = -y[has_slack] * self.slack_sign[has_slack]
                if bland:
                    good = np.nonzero(rs > OPT_TOL)[0]
                    if good.size:
                        i = int(has_slack[good[0]])
                        enc = self.n + 2 * i
                        if best_q < 0 or enc < best_q or best_q >= self.n:
                            best_q, best_rc = enc, rs[good[0]]
                else:
                    k = int(rs.argmax())
                    if rs[k] > best_rc:
                        best_q = self.n + 2 * int(has_slack[k])
                        best_rc = rs[k]
            if best_q < 0:
                nb = self._factorize(basis) if self._refactor_due(basis, binv, True) else None
                if nb is None:
                    break
                binv, xb = nb, nb @ self.b
                xb[np.abs(xb) < 1e-12] = 0.0
                continue
            q = best_q
            d = binv @ self._column(q)
            pos = d > PIVOT_TOL
            if not pos.any():
                raise UnboundedError("LP is unbounded (internal error)")
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(pos, np.maximum(xb, 0.0) / np.where(pos, d, 1.0), np.inf)
            rmin = ratios.min()
            # ties: artificials leave first, then the smallest code
            ties = (ratios <= rmin + 1e-12).nonzero()[0]
            art = self._art_code[basis[ties]]
            if art.any():
                ties = ties[art]
            r = int(ties[basis[ties].argmin()])
            if rmin < 1e-12:
                degenerate_count += 1
                if degenerate_count > bland_threshold:
                    bland = True
            else:
                degenerate_count = 0
            basis[r] = q
            cb[r] = cs[q] if q < self.n else 0.0
            self._pivot(binv, r, d)
            step = xb[r] / d[r]
            xb -= step * d
            xb[r] = step
            if self._refactor_due(basis, binv, False):
                nb = self._factorize(basis)
                if nb is not None:
                    binv, xb = nb, nb @ self.b
            xb[np.abs(xb) < 1e-12] = 0.0
        return basis, binv, xb, iters


def assert_same_solve(fast, ref, c):
    """Solve ``c`` on both simplexes; the results and the bases they hold
    must be equal byte for byte.  Returns the first result."""
    a, b = fast.solve(c), ref.solve(c)
    assert a.x.tobytes() == b.x.tobytes()
    assert fast._basis.tobytes() == ref._basis.tobytes()
    assert a.iterations == b.iterations
    return a


class TestDenseReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps(self, seed):
        n, rows, c = random_local_lp(seed)
        assert_same_solve(Simplex(n, rows), DenseReference(n, rows), c)

    @pytest.mark.parametrize("seed", range(5))
    def test_warm_start_sequences(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, rows, c = random_local_lp(seed)
        fast, ref = Simplex(n, rows), DenseReference(n, rows)
        for _ in range(20):
            assert_same_solve(fast, ref, c + 0.1 * rng.normal(size=n))

    @pytest.mark.parametrize("seed", range(5))
    def test_after_add_rows(self, seed):
        n, rows, c = random_local_lp(seed)
        fast, ref = Simplex(n, rows), DenseReference(n, rows)
        res = assert_same_solve(fast, ref, c)
        top = int(np.argmax(res.x))
        cut = Row.make({top: 1.0}, "<=", 0.5 * res.x[top])
        fast.add_rows([cut])
        ref.add_rows([cut])
        assert_same_solve(fast, ref, c)

    def test_ground_warm_start_sequence(self):
        system, c, basis = ground_local_lp()
        assert len(system.rows) >= 64   # the nonzero-column update
        rng = np.random.default_rng(7)
        fast, ref = (cls(system.n_vars, system.rows, system.fixed_zero, basis)
                     for cls in (Simplex, DenseReference))
        updates = 0
        for _ in range(12):
            a = assert_same_solve(fast, ref, c + 0.5 * rng.normal(size=c.size))
            updates += a.iterations
        assert updates > REFACTOR_EVERY

    def test_ground_after_add_rows(self):
        system, c, basis = ground_local_lp()
        fast, ref = (cls(system.n_vars, system.rows, system.fixed_zero, basis)
                     for cls in (Simplex, DenseReference))
        res = assert_same_solve(fast, ref, c)
        top = np.argsort(-res.x)[:3]
        cuts = [Row.make({int(j): 1.0}, "<=", 0.5 * res.x[j]) for j in top]
        fast.add_rows(cuts)
        ref.add_rows(cuts)
        assert_same_solve(fast, ref, c + 0.1)

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
        simplex = Checked(system.n_vars, system.rows, system.fixed_zero)
        simplex.checked = 0
        rng = np.random.default_rng(8)
        for _ in range(6):
            simplex.solve(c + 0.5 * rng.normal(size=c.size))
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


class TestParentPricing:
    """``Simplex`` against ``ParentPricing``: equal ``x``, basis and
    iteration count on every solve."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps(self, seed):
        n, rows, c = random_local_lp(seed)
        assert_same_solve(Simplex(n, rows), ParentPricing(n, rows), c)

    @pytest.mark.parametrize("seed", range(5))
    def test_warm_start_sequences(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, rows, c = random_local_lp(seed)
        fast, ref = Simplex(n, rows), ParentPricing(n, rows)
        for _ in range(20):
            assert_same_solve(fast, ref, c + 0.1 * rng.normal(size=n))

    @pytest.mark.parametrize("seed", range(5))
    def test_cut_sequences(self, seed):
        """``<=`` cuts at each vertex add slack columns to price."""
        n, rows, c = random_local_lp(seed)
        fast, ref = Simplex(n, rows), ParentPricing(n, rows)
        for _ in range(4):
            x = assert_same_solve(fast, ref, c).x
            top = np.argsort(-x, kind="stable")[:2]
            cut = Row.make({int(j): 1.0 for j in top}, "<=", 0.7 * float(x[top].sum()))
            fast.add_rows([cut])
            ref.add_rows([cut])
        assert fast.m == len(rows) + 4

    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_zero(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, rows, c = random_local_lp(seed)
        fixed = np.arange(n) % 3 == 1
        fast, ref = Simplex(n, rows, fixed), ParentPricing(n, rows, fixed)
        for _ in range(5):
            x = assert_same_solve(fast, ref, c + 0.3 * rng.normal(size=n)).x
            assert (x[fixed] == 0.0).all()

    @pytest.mark.parametrize("name", sorted(CYCLING_LPS))
    def test_cycling_lps(self, name):
        rows, c, _x_opt = CYCLING_LPS[name]
        fast, ref = Simplex(4, rows), ParentPricing(4, rows)
        a, flags = _bland_flags(lambda: fast.solve(np.array(c)))
        b, ref_flags = _bland_flags(lambda: ref.solve(np.array(c)), ParentPricing)
        assert flags == ref_flags == [False, True]
        assert (a.x.tobytes(), a.iterations) == (b.x.tobytes(), b.iterations)
        assert fast._basis.tobytes() == ref._basis.tobytes()

    @pytest.mark.parametrize("name", CLEANUP_LPS)
    def test_phase1_cleanup(self, name):
        rows, c, _x_opt, _kept, added, c2 = CLEANUP_LPS[name]
        fast, ref = Simplex(2, rows), ParentPricing(2, rows)
        assert_same_solve(fast, ref, np.array(c))
        fast.add_rows([added])
        ref.add_rows([added])
        assert_same_solve(fast, ref, np.array(c2))
        assert fast.phase1_runs == ref.phase1_runs == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_random_large_lps(self, seed):
        """Pivots of random magnitude on 71 rows, slack columns of both
        signs, and a warm sequence after a cut."""
        rng = np.random.default_rng(400 + seed)
        n, rows, c = random_large_lp(seed)
        fast, ref = Simplex(n, rows), ParentPricing(n, rows)
        assert fast.m >= 64 and (fast.slack_sign < 0).any()
        x = assert_same_solve(fast, ref, c).x
        top = int(np.argmax(x))
        cut = Row.make({top: 1.0}, "<=", 0.5 * x[top])
        fast.add_rows([cut])
        ref.add_rows([cut])
        for _ in range(6):
            assert_same_solve(fast, ref, c + 0.3 * rng.normal(size=n))

    @pytest.mark.parametrize("rows, basis, c, x, after", [
        # the last slack starts at -5e-8, within FEAS_TOL: entering x1 ties
        # both slacks at ratio 0 through max(xb, 0), and the smaller code leaves
        ([Row.make({0: 1.0}, "=", 1.0), Row.make({0: 1.0, 1: 1.0}, "<=", 1.0),
          Row.make({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 1.0 - 5e-8)],
         [0, 5, 7], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0, 1, 7]),
        # x0 starts at 5e-13, below the 1e-12 at which xb is cleaned to 0,
        # and the start is optimal
        ([Row.make({0: 1.0}, "=", 5e-13), Row.make({0: 1.0, 1: 1.0}, "<=", 1.0)],
         [0, 4], [1.0, 0.0], [0.0, 0.0], [0, 4]),
    ], ids=["slack-below-zero", "basic-near-zero"])
    def test_held_basis_near_zero(self, rows, basis, c, x, after):
        """A held basis accepted within the feasibility tolerance: its
        ``binv @ b``, handed from the feasibility test to the pricing
        rounds, is cleaned and clamped as when recomputed there."""
        fast, ref = (cls(len(c), rows, None, basis) for cls in (Simplex, ParentPricing))
        assert assert_same_solve(fast, ref, np.array(c)).x.tolist() == x
        assert fast._basis.tolist() == after and fast.phase1_runs == 0

    def test_ground_local_lp(self):
        """A cold solve (phase 1 on 210 rows), 12 warm solves, then three
        cuts that cut off the vertex."""
        system, c, _ = ground_local_lp()
        fast, ref = (cls(system.n_vars, system.rows, system.fixed_zero)
                     for cls in (Simplex, ParentPricing))
        res = assert_same_solve(fast, ref, c)
        rng = np.random.default_rng(9)
        for _ in range(12):
            res = assert_same_solve(fast, ref, c + 0.5 * rng.normal(size=c.size))
        top = np.argsort(-res.x, kind="stable")[:3]
        cuts = [Row.make({int(j): 1.0}, "<=", 0.5 * res.x[j]) for j in top]
        fast.add_rows(cuts)
        ref.add_rows(cuts)
        assert_same_solve(fast, ref, c)
        assert fast.m >= 64 and fast.phase1_runs == ref.phase1_runs >= 2
        assert fast.refactorizations == ref.refactorizations

    @pytest.mark.parametrize("name, n, w, outer, ground", [
        ("clique_cycle", 10, 0.5, "cycle+exch", False),
        ("friends_smokers", 10, 1.0, "local+exch", False),   # fixed zeros, phase 1
        ("complete_graph", 12, -1.0, "local", True),
    ])
    def test_solves(self, monkeypatch, name, n, w, outer, ground):
        """Whole solves give the same bound, ``tau``, pivots and cuts."""
        g = build(name, n, w)
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)

        def run():
            if ground:
                return lt.ground_trw(g, expand_rho(lg, rho), outer=outer, tol=1e-4,
                                     max_iters=15, polish=False)
            return lt.frank_wolfe(lg, outer=outer, rho=rho, tol=1e-5, max_iters=200)

        res = run()
        monkeypatch.setattr(trw, "Simplex", ParentPricing)
        ref = run()
        assert np.float64(res.bound).tobytes() == np.float64(ref.bound).tobytes()
        assert res.tau.tobytes() == ref.tau.tobytes()
        assert (res.lp_pivots, res.n_cuts) == (ref.lp_pivots, ref.n_cuts)
        assert res.stats["lp_phase1_runs"] == ref.stats["lp_phase1_runs"]


class TestDrift:
    def test_clean_inverse_kept(self):
        n, rows, c = random_local_lp(3)
        simplex = Simplex(n, rows)
        simplex.solve(c)
        count = simplex.refactorizations
        simplex.solve(c)
        simplex.solve(-c)
        assert simplex.refactorizations == count

    def test_drifted_inverse_refactorized_at_optimality(self):
        n, rows, c = random_local_lp(3)
        simplex = Simplex(n, rows)
        simplex.solve(c)
        count = simplex.refactorizations
        simplex._binv[0, 0] += 1e-6   # b[0] = 1, so B (B^-1 b) moves off b
        res = simplex.solve(c)
        assert simplex.refactorizations == count + 1
        cold = Simplex(n, rows).solve(c)
        assert res.x.tobytes() == cold.x.tobytes()

    def test_drift_in_zero_rhs_column_refactorized(self):
        """An error in a column of the inverse whose right-hand side is 0
        does not move ``B^-1 b``; the drift check must still see it."""
        system, c, basis = ground_local_lp()
        simplex = Simplex(system.n_vars, system.rows, system.fixed_zero, basis)
        simplex.solve(c)
        j = int(np.flatnonzero(simplex.b == 0.0)[0])
        i = int(np.argmax(np.abs(simplex._binv[:, j])))
        count = simplex.refactorizations
        simplex._binv[i, j] += 1e-6
        res = simplex.solve(c)
        assert simplex.refactorizations == count + 1
        cold = Simplex(system.n_vars, system.rows, system.fixed_zero, basis).solve(c)
        assert res.x.tobytes() == cold.x.tobytes()
