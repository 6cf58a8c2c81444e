"""Self-contained dense revised-simplex LP solver with warm starting.

Solves ``max c.x  s.t.  rows, x >= 0`` where each row is a sparse linear
constraint with relation ``=`` or ``<=``.  All problems produced by this
package have a bounded feasible region (variables live in [0, 1] implicitly),
so unboundedness is treated as an internal error.

The simplex keeps its basis between solves and warm-starts each solve from
it; a crash basis may be given once, at construction.  Column codes of a
basis (stable across row additions): structural variable ``j`` is ``j``; the
slack of row ``i`` is ``n + 2*i``; the artificial of row ``i`` is
``n + 2*i + 1``.  Artificials can remain basic at level zero when a row is
redundant; they are never allowed to enter.  Only the structural block of the
constraint matrix is materialized; slack and artificial columns are unit
vectors handled implicitly.

The explicit basis inverse is updated in place at each pivot.  On matrices
of 64 rows or more the rank-1 update touches only the columns where the
leaving row of the inverse is nonzero (a median of 8 of 210 on the ground
local LP of ``complete_graph`` n=12, whose inverse is about 5% nonzero);
every other column would only have zero subtracted, so the result is the
same as the full update's.  Besides its three matrix-vector products
(``cb @ binv``, ``y @ A`` and ``binv @ a_q``), a pricing round touches the
inverse only in those columns, and its ratio test gathers and divides only
the rows where ``d`` is positive.  Over the 38 LP solves (1 095 pivots)
of one ``ground_reference`` bench pass, best of 15 on one core of a shared
2-CPU Intel Xeon host, the ratio test takes 6.3 ms, the update 11.0 ms and
the three products 18 ms, of 47 ms.  Read over every row, with the update
broadcast across the gathered columns, the first two took 11.4 and
17.0 ms.  ``binv`` stays C-ordered and ``A`` F-ordered: the layout picks
the BLAS kernel and so the summation order of each product, and with it
the last bits of every pivot.

The inverse is computed afresh only when it has drifted: every
``REFACTOR_EVERY`` updates, and when a solve reaches optimality with an
updated inverse, the residual ``max |B (B^-1 v) - v|`` with ``v = b + 1`` is
measured without forming ``B``, and one above ``DRIFT_TOL`` triggers a
factorization (at optimality followed by another round of pricing).  ``v``
is nonzero in every row, so an error in any column of the inverse shows in
the residual; most rows of a local LP have ``b = 0``.
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
    """A sparse row; :meth:`make` lists each column once, ascending, so a row
    is its own key (a set or dict of rows holds each constraint once)."""

    coeffs: tuple[tuple[int, float], ...]
    rel: str  # '=' or '<='
    rhs: float

    @staticmethod
    def make(coeffs, rel, rhs):
        """A row from ``{column: coefficient}`` or ``(column, coefficient)``
        pairs; pairs of one column are summed and zero sums dropped."""
        summed = {}
        for j, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            summed[int(j)] = summed.get(int(j), 0.0) + float(c)
        return Row(tuple(sorted((j, c) for j, c in summed.items() if c != 0.0)),
                   rel, float(rhs))


@dataclass
class SolveResult:
    x: np.ndarray
    objective: float
    iterations: int = 0


class Simplex:
    """Revised simplex over a fixed constraint set; objectives may vary.

    Keeps the basis and its inverse alive between solves so that re-solving
    after an objective change (the common case in conditional gradient loops)
    costs only a few pivots.  ``basis`` is an optional crash basis, one
    column code per row, for the first solve; ``add_rows`` extends a held
    basis with the new rows' start codes.  Columns marked in ``fixed_zero``
    never enter.  ``refactorizations`` counts the inverses computed from
    scratch, ``phase1_runs`` the solves that ran phase 1 and
    ``phase1_rounds`` the pricing rounds of those phase-1 runs.  A
    ``fixed_zero`` mask of other than ``n_vars`` entries raises
    ``ValueError``, as does a row with a non-finite entry, a relation other
    than ``=`` or ``<=`` or a column outside ``[0, n_vars)``.
    """

    def __init__(self, n_vars, rows, fixed_zero=None, basis=None):
        self.n = n_vars
        self.fixed_zero = (np.zeros(n_vars, dtype=bool)
                           if fixed_zero is None else np.asarray(fixed_zero, dtype=bool))
        if self.fixed_zero.shape != (n_vars,):
            raise ValueError(f"fixed_zero has shape {self.fixed_zero.shape}, "
                             f"need ({n_vars},)")
        self.m = 0
        self.A = np.zeros((0, n_vars), order="F")
        self.b = np.zeros(0)
        self.slack_sign = np.zeros(0)
        self._build(list(rows))
        if basis is not None:
            basis = np.array(basis, dtype=np.int64)
            if basis.shape != (self.m,):
                raise ValueError(f"basis has {basis.size} codes for {self.m} rows")
            if ((basis < 0) | (basis >= n_vars + 2 * self.m)).any():
                raise ValueError(f"basis codes must lie in [0, {n_vars + 2 * self.m})")
        self._basis = basis
        self._binv = None
        self._updates = 0
        self.refactorizations = 0
        self.phase1_runs = 0
        self.phase1_rounds = 0

    def _build(self, rows):
        """Append ``rows`` to the matrix; a row of negative right-hand side
        is stored negated.  Rows already held are copied, not walked.  A row
        with a non-finite coefficient or right-hand side, a relation other
        than ``=`` or ``<=`` or a column outside ``[0, n)`` raises
        ``ValueError`` and leaves the matrix as it was."""
        n, first = self.n, self.m
        m = first + len(rows)
        A = np.zeros((m, n), order="F")
        A[:first] = self.A
        b = np.zeros(m)
        b[:first] = self.b
        slack_sign = np.zeros(m)
        slack_sign[:first] = self.slack_sign
        for i, row in enumerate(rows, first):
            if row.rel not in ("=", "<="):
                raise ValueError(f"row {i} has relation {row.rel!r}, not '=' or '<='")
            sign = -1.0 if row.rhs < 0 else 1.0
            for j, c in row.coeffs:
                if not 0 <= j < n:
                    raise ValueError(f"row {i} has column {j} outside [0, {n})")
                A[i, j] += sign * c
            b[i] = sign * row.rhs
            if row.rel == "<=":
                slack_sign[i] = sign
        bad = ~(np.isfinite(A[first:]).all(axis=1) & np.isfinite(b[first:]))
        if bad.any():
            raise ValueError(f"row {first + int(bad.argmax())} has a non-finite "
                             "coefficient or right-hand side")
        self.m = m
        self.A = A
        self.b = b
        self.slack_sign = slack_sign
        # per column code: the nonzero of a slack or artificial unit column,
        # and whether the code is an artificial
        self._unit_coef = np.zeros(n + 2 * m)
        self._unit_coef[n::2] = slack_sign
        self._unit_coef[n + 1::2] = 1.0
        self._art_code = np.zeros(n + 2 * m, dtype=bool)
        self._art_code[n + 1::2] = True

    def add_rows(self, rows):
        first = self.m
        self._build(list(rows))
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
        nonzero), so matrices under 64 rows are updated whole.  The gathered
        columns are taken as rows of ``binv.T``, so the broadcast's inner
        loop runs along the m entries of a column, not across the few
        columns (a median of 8 of 210 on the ground local LP): 10 instead of
        17 us a pivot there.  Both forms compute the products of
        ``np.outer(d / piv, binv[r])``, in the large form with the factors
        swapped, which IEEE multiplication leaves bit for bit the same.
        """
        piv = d[r]
        binv_r = binv[r].copy()
        if self.m >= 64:
            nz = binv_r.nonzero()[0]
            binv.T[nz] -= binv_r[nz][:, None] * (d / piv)
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

    def _iterate(self, c_struct, basis, binv, phase, xb=None):
        """Pricing rounds from ``basis`` to optimality; ``xb`` is
        ``binv @ self.b`` when the caller has it already."""
        m, n = self.m, self.n
        if xb is None:
            xb = binv @ self.b
        xb[np.abs(xb) < 1e-12] = 0.0
        degenerate_count = 0
        bland = False
        bland_threshold = 10 * (m + n)
        # measured solves take at most 0.56 (m + n) rounds; past the budget a
        # corrupted inverse or cycling would spin without end
        budget = 50 * (m + n)
        iters = 0
        cb = self._objvec(basis, c_struct, phase)
        fixed = self.fixed_zero.nonzero()[0]
        slack_rows = self.slack_sign.nonzero()[0]
        neg_sign = -self.slack_sign[slack_rows]
        cs = c_struct if phase == 2 else np.zeros(n)
        # one reduced cost per candidate column, structural columns first,
        # then the slacks in row order: the code of entry k is enter_codes[k]
        rc = np.empty(n + slack_rows.size)
        rc_struct, rc_slack = rc[:n], rc[n:]
        enter_codes = np.concatenate([np.arange(n), n + 2 * slack_rows])
        # the pivot loop calls array methods, not np.argmax and np.nonzero,
        # whose wrappers cost about 1 us a call: 8% of the LP time on LPs of
        # a few dozen rows.  Besides the three products with binv and A, a
        # round works on the candidate rows of the ratio test and the
        # nonzero columns of the leaving row of binv (see _pivot)
        while True:
            iters += 1
            if iters > budget:
                raise RuntimeError(f"simplex phase {phase} made {budget} pricing rounds "
                                   f"without reaching optimality (m={m}, n={n})")
            y = cb @ binv
            np.subtract(cs, y @ self.A, out=rc_struct)
            if slack_rows.size:
                np.multiply(y[slack_rows], neg_sign, out=rc_slack)
            if fixed.size:
                rc[fixed] = -np.inf
            # Dantzig: the largest reduced cost; Bland: the first positive
            k = (rc > OPT_TOL).argmax() if bland else rc.argmax()
            if not rc[k] > OPT_TOL:
                nb = self._factorize(basis) if self._refactor_due(basis, binv, True) else None
                if nb is None:
                    break
                binv, xb = nb, nb @ self.b
                xb[np.abs(xb) < 1e-12] = 0.0
                continue
            q = int(enter_codes[k])
            d = binv @ self._column(q)
            pos = (d > PIVOT_TOL).nonzero()[0]
            if not pos.size:
                raise UnboundedError("LP is unbounded (internal error)")
            ratios = np.maximum(xb[pos], 0.0) / d[pos]
            rmin = ratios.min()
            # ties: artificials leave first, then the smallest code
            ties = pos[ratios <= rmin + 1e-12]
            if ties.size > 1:
                codes = basis[ties]
                art = self._art_code[codes]
                if art.any():
                    ties, codes = ties[art], codes[art]
                r = int(ties[codes.argmin()])
            else:
                r = int(ties[0])
            if rmin < 1e-12:
                degenerate_count += 1
                if degenerate_count > bland_threshold:
                    bland = True
            else:
                degenerate_count = 0
            basis[r] = q
            cb[r] = cs[q] if q < n else 0.0
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
        self.phase1_runs += 1
        self.phase1_rounds += it1
        infeas = float(xb[self._art_code[basis]].sum())
        if infeas > 1e-7:
            raise InfeasibleError(f"phase 1 residual {infeas:.3e}")
        # pivot remaining artificials out where the row is not redundant: the
        # first candidate in _iterate's pricing order, structural then slack
        n = self.n
        for r in np.flatnonzero(self._art_code[basis]):
            row_vals = binv[r] @ self.A
            row_vals[self.fixed_zero] = 0.0
            cand = np.flatnonzero(np.abs(np.concatenate([row_vals, binv[r] * self.slack_sign]))
                                  > 1e-7)
            if cand.size:
                k = int(cand[0])
                q = k if k < n else n + 2 * (k - n)
                basis[r] = q
                self._pivot(binv, r, binv @ self._column(q))
        return basis, binv, it1

    def solve(self, objective):
        """Maximize ``objective`` over the constraint set.

        Starts from the held basis (the last solve's, else the crash basis);
        falls back to phase 1 when there is none or it is singular or primal
        infeasible.  An objective that is not ``n`` finite numbers raises
        ``ValueError``.
        """
        c_struct = np.asarray(objective, dtype=float)
        if c_struct.shape != (self.n,):
            raise ValueError(f"objective has shape {c_struct.shape}, need ({self.n},)")
        if not np.isfinite(c_struct).all():
            raise ValueError("objective has a non-finite entry")
        iters = 0
        xb = None   # binv @ b of the held basis once it is accepted
        if self._basis is not None:
            basis = self._basis.copy()
            binv = self._binv if self._binv is not None else self._factorize(basis)
            if binv is not None:
                xb = binv @ self.b
                if xb.min() < -FEAS_TOL or (self._art_code[basis] & (xb > FEAS_TOL)).any():
                    xb = None
        if xb is None:
            basis, binv, iters = self._phase1()

        basis, binv, xb, it2 = self._iterate(c_struct, basis, binv, 2, xb)
        iters += it2

        x = np.zeros(self.n)
        struct = basis < self.n
        x[basis[struct]] = np.maximum(xb[struct], 0.0)
        self._basis = basis
        self._binv = binv
        return SolveResult(x=x, objective=float(c_struct @ x), iterations=iters)
