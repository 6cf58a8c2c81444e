"""Self-contained dense revised-simplex LP solver with warm starting.

Solves ``max c.x  s.t.  rows, x >= 0`` where each row is a sparse linear
constraint with relation ``=`` or ``<=``.  All problems produced by this
package have a bounded feasible region (variables live in [0, 1] implicitly),
so unboundedness is treated as an internal error.

Column encoding used in :class:`Basis` (stable across row additions):
structural variable ``j`` is ``j``; the slack of row ``i`` is ``n + 2*i``;
the artificial of row ``i`` is ``n + 2*i + 1``.  Artificials can remain basic
at level zero when a row is redundant; they are never allowed to enter.  Only
the structural block of the constraint matrix is materialized; slack and
artificial columns are unit vectors handled implicitly.

The explicit basis inverse is updated in place at each pivot.  On matrices
of 64 rows or more the rank-1 update touches only the columns where the
leaving row of the inverse is nonzero (a few percent of them on ground local
LPs); every other column would only have zero subtracted, so the result is
the same as the full update's.  The inverse is computed afresh only when it
has drifted: every ``REFACTOR_EVERY`` updates, and when a solve reaches
optimality with an updated inverse, the residual ``max |B (B^-1 v) - v|``
with ``v = b + 1`` is measured without forming ``B``, and one above
``DRIFT_TOL`` triggers a factorization (at optimality followed by another
round of pricing).  ``v`` is nonzero in every row, so an error in any column
of the inverse shows in the residual; most rows of a local LP have ``b = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
OPT_TOL = 1e-9
FEAS_TOL = 1e-7
REFACTOR_EVERY = 50     # updates between drift checks
DRIFT_TOL = 1e-9        # largest residual max|B (B^-1 v) - v| kept


class InfeasibleError(Exception):
    pass


class UnboundedError(Exception):
    pass


@dataclass(frozen=True)
class Row:
    coeffs: tuple[tuple[int, float], ...]
    rel: str  # '=' or '<='
    rhs: float
    tag: str = ""

    @staticmethod
    def make(coeffs, rel, rhs, tag=""):
        """A row from ``{column: coefficient}`` or ``(column, coefficient)``
        pairs; pairs of one column are summed and zero sums dropped."""
        summed = {}
        for j, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            summed[int(j)] = summed.get(int(j), 0.0) + float(c)
        return Row(tuple(sorted((j, c) for j, c in summed.items() if c != 0.0)),
                   rel, float(rhs), tag)

    def canonical_key(self, ndigits=12):
        return (tuple((j, round(c, ndigits)) for j, c in self.coeffs),
                self.rel, round(self.rhs, ndigits))


@dataclass(frozen=True)
class Basis:
    cols: tuple[int, ...]


@dataclass
class SolveResult:
    x: np.ndarray
    objective: float
    basis: Basis
    iterations: int = 0


class Simplex:
    """Revised simplex over a fixed constraint set; objectives may vary.

    Keeps the basis inverse alive between solves so that re-solving
    after an objective change (the common case in conditional gradient loops)
    costs only a few pivots.  ``refactorizations`` counts the inverses
    computed from scratch.
    """

    def __init__(self, n_vars, rows, fixed_zero=None):
        self.n = n_vars
        self.rows = list(rows)
        self.fixed_zero = (np.zeros(n_vars, dtype=bool)
                           if fixed_zero is None else np.asarray(fixed_zero, dtype=bool))
        self._build()
        self._basis = None
        self._binv = None
        self._updates = 0
        self.refactorizations = 0

    def _build(self):
        n = self.n
        m = len(self.rows)
        self.m = m
        A = np.zeros((m, n))
        b = np.zeros(m)
        slack_sign = np.zeros(m)
        for i, row in enumerate(self.rows):
            sign = -1.0 if row.rhs < 0 else 1.0
            for j, c in row.coeffs:
                A[i, j] = sign * c
            b[i] = sign * row.rhs
            if row.rel == "<=":
                slack_sign[i] = sign
        self.A = np.asfortranarray(A)
        self.b = b
        self.slack_sign = slack_sign
        self.block_struct = self.fixed_zero.copy()
        # per column code: the nonzero of a slack or artificial unit column,
        # and whether the code is an artificial
        self._unit_coef = np.zeros(n + 2 * m)
        self._unit_coef[n::2] = slack_sign
        self._unit_coef[n + 1::2] = 1.0
        self._art_code = np.zeros(n + 2 * m, dtype=bool)
        self._art_code[n + 1::2] = True

    def add_rows(self, rows):
        first = self.m
        self.rows.extend(rows)
        self._build()
        if self._basis is not None:
            self._basis = np.concatenate([self._basis, self._initial_basis(first)])
        self._binv = None

    def _column(self, j):
        if j < self.n:
            return self.A[:, j]
        col = np.zeros(self.m)
        col[(j - self.n) // 2] = self._unit_coef[j]
        return col

    def _unit_columns(self, basis):
        """Positions of the slack and artificial codes in ``basis``, their
        rows and their nonzero coefficients."""
        k = np.flatnonzero(basis >= self.n)
        codes = basis[k]
        return k, (codes - self.n) // 2, self._unit_coef[codes]

    def _basis_matrix(self, basis):
        B = np.zeros((self.m, self.m))
        struct = basis < self.n
        B[:, struct] = self.A[:, basis[struct]]
        k, i, coef = self._unit_columns(basis)
        B[i, k] = coef
        return B

    def _factorize(self, basis):
        try:
            binv = np.linalg.inv(self._basis_matrix(basis))
        except np.linalg.LinAlgError:
            return None
        self._updates = 0
        self.refactorizations += 1
        return binv

    def _drift(self, basis, binv):
        """``max |B (B^-1 v) - v|`` with ``v = b + 1`` for the inverse
        ``binv`` of ``basis``.  Rows are signed so that ``b >= 0``; hence
        ``v`` is nonzero in every row and every column of ``binv`` enters."""
        v = self.b + 1.0
        xv = binv @ v
        struct = basis < self.n
        x = np.zeros(self.n)
        x[basis[struct]] = xv[struct]
        resid = self.A @ x - v
        k, i, coef = self._unit_columns(basis)
        np.add.at(resid, i, coef * xv[k])
        return float(np.abs(resid).max(initial=0.0))

    def _initial_basis(self, first=0):
        """Start codes of rows ``first`` onward: the slack where it is
        nonnegative at ``x = 0``, the artificial otherwise."""
        return self.n + 2 * np.arange(first, self.m) + (self.slack_sign[first:] <= 0)

    def _objvec(self, basis, c_struct, phase):
        cb = np.zeros(basis.size)
        if phase == 2:
            struct = basis < self.n
            cb[struct] = c_struct[basis[struct]]
        else:
            cb[self._art_code[basis]] = -1.0
        return cb

    def _pivot(self, binv, r, d):
        """Update ``binv`` in place for the column ``d = B^-1 a_q`` entering
        at basis position ``r``.

        Only the columns where row ``r`` of ``binv`` is nonzero change; the
        others would have zero subtracted.  On small matrices gathering and
        scattering those columns costs more than the whole update (the
        crossover lies between 64 and 128 rows for leaving rows 1% to 12%
        nonzero), so matrices under 64 rows are updated whole.  Both forms
        compute the same products (those of ``np.outer``).
        """
        piv = d[r]
        binv_r = binv[r].copy()
        if self.m >= 64:
            nz = np.flatnonzero(binv_r)
            binv[:, nz] -= (d / piv)[:, None] * binv_r[nz]
        else:
            binv -= (d / piv)[:, None] * binv_r
        binv[r] = binv_r / piv
        self._updates += 1

    def _refactor_due(self, basis, binv, optimal):
        """Whether ``binv`` has drifted from the inverse of ``basis``.

        Measured every ``REFACTOR_EVERY`` updates and at optimality, never
        right after a factorization.
        """
        if self._updates == 0 or (not optimal and self._updates % REFACTOR_EVERY):
            return False
        return self._drift(basis, binv) > DRIFT_TOL

    def _iterate(self, c_struct, basis, binv, phase):
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
            rc[self.block_struct] = -np.inf
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

    def _phase1(self):
        basis = self._initial_basis()
        binv = self._factorize(basis)
        basis, binv, xb, it1 = self._iterate(np.zeros(self.n), basis, binv, phase=1)
        infeas = float(xb[self._art_code[basis]].sum())
        if infeas > 1e-7:
            raise InfeasibleError(f"phase 1 residual {infeas:.3e}")
        # pivot remaining artificials out where the row is not redundant
        for r in np.flatnonzero(self._art_code[basis]):
            row_vals = binv[r] @ self.A
            row_vals[self.block_struct] = 0.0
            cand = np.nonzero(np.abs(row_vals) > 1e-7)[0]
            if cand.size:
                q = int(cand[0])
            else:
                cand = np.flatnonzero(np.abs(binv[r] * self.slack_sign) > 1e-7)
                q = self.n + 2 * int(cand[0]) if cand.size else -1
            if q >= 0:
                basis[r] = q
                self._pivot(binv, r, binv @ self._column(q))
        return basis, binv, it1

    def solve(self, objective, warm=None):
        """Maximize ``objective`` over the constraint set.

        ``warm`` is a :class:`Basis` (or None).  Falls back to a cold start
        when the warm basis is singular or primal infeasible.
        """
        c_struct = np.asarray(objective, dtype=float)
        iters = 0

        def usable(cand, binv):
            if binv is None:
                return False
            xb = binv @ self.b
            return xb.min() >= -FEAS_TOL and not (self._art_code[cand] & (xb > FEAS_TOL)).any()

        basis = None
        binv = None
        if warm is not None and len(warm.cols) == self.m:
            cand = np.array(warm.cols, dtype=np.int64)
            if (cand < self.n + 2 * self.m).all():
                if self._binv is not None and np.array_equal(cand, self._basis):
                    binv = self._binv
                else:
                    binv = self._factorize(cand)
                if usable(cand, binv):
                    basis = cand
                else:
                    binv = None
        if basis is None and self._basis is not None and len(self._basis) == self.m:
            cand = self._basis.copy()
            binv = self._binv if self._binv is not None else self._factorize(cand)
            if usable(cand, binv):
                basis = cand
            else:
                binv = None
        if basis is None:
            basis, binv, it1 = self._phase1()
            iters += it1

        basis, binv, xb, it2 = self._iterate(c_struct, basis, binv, phase=2)
        iters += it2

        x = np.zeros(self.n)
        struct = basis < self.n
        x[basis[struct]] = np.maximum(xb[struct], 0.0)
        self._basis = basis
        self._binv = binv
        return SolveResult(
            x=x,
            objective=float(c_struct @ x),
            basis=Basis(tuple(basis.tolist())),
            iterations=iters,
        )
