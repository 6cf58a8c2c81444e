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
of ``GATHER_ROWS`` (64) rows or more the rank-1 update touches only the
columns where the leaving row of the inverse is nonzero (a median of 8 of
210 on the ground local LP of ``complete_graph`` n=12, whose inverse is
about 5% nonzero); every other column would only have zero subtracted, so
the result is the same as the full update's.  The ratio test gathers and
divides only the rows where ``d`` is positive, and a pivot of step exactly 0
(most pivots of a ground LP are degenerate) leaves ``B^-1 b`` as it is.

Pricing depends on the size.  LPs under ``UPDATE_PRICES_ROWS`` (112) rows,
every lifted LP of the bench among them (at most 36 rows), price each round
afresh with ``y = cb @ binv`` and ``c - y @ A`` and take the entering column
as ``binv @ a_q``; their pivots are those of pricing over whole rows, bit for
bit.  Larger LPs price afresh only at the start of a solve and after each
factorization, and carry ``y`` and the reduced costs through each pivot
along the new pivot row of the inverse, over its nonzero columns and the
rows of ``A`` they select; the entering column is computed from its own
nonzeros, held by column since ``_build``.  When the carried costs show no
improving column the round prices afresh, so a solve ends only on exactly
recomputed reduced costs; the last bits of the carried ones may pick
another pivot path than pricing afresh would, to the same optimum.  The 38
LP solves of one ``ground_reference`` bench pass, two of its cells on the
210-row ground LP, took 62.9 ms over 1 093 pivots (best of 15 passes in each
of 6 runs, on one core of a shared 2-CPU Intel Xeon host); with every round
priced afresh, dense FTRAN and no skip of zero steps they took 76.5 ms over
1 095 pivots.  ``binv`` stays C-ordered and ``A`` F-ordered: the layout picks
the BLAS kernel and so the summation order of each product, and with it the
last bits of every pivot.

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
# Row counts from which the rules for large LPs run.  Both were measured on
# one core of a shared 2-CPU Intel Xeon host, numpy 2.4 with OpenBLAS.
# _pivot gathers the nonzero columns of the inverse from GATHER_ROWS rows: the
# crossover lay between 64 and 128 rows for leaving rows 1% to 12% nonzero.
# _iterate carries the prices, and computes the entering column binv @ a_q
# from its nonzeros, from UPDATE_PRICES_ROWS rows.  On the ground local LPs of
# complete_graph, pricing afresh took 5.8, 8.2 and 16.4 us at 92, 117 and 210
# rows, against 6.8, 7.9 and 8.6 us to carry the prices through a pivot; over
# warm solve sequences a carried round was 6% slower at 92 rows, 6% faster at
# 117 and 18% faster at 210.
GATHER_ROWS = 64
UPDATE_PRICES_ROWS = 112


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
    scratch, ``phase1_runs`` the solves that ran phase 1,
    ``phase1_rounds`` the pricing rounds of those phase-1 runs and
    ``degenerate_pivots`` the pivots of ratio below 1e-12.  LPs of
    ``UPDATE_PRICES_ROWS`` rows or more carry their duals and reduced costs
    from pivot to pivot and price afresh before they stop; smaller ones
    price every round afresh, bit for bit as over whole rows.  A
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
        self.degenerate_pivots = 0

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
        # the nonzeros of A by column, for _ftran: column j's row indices
        # and values are _col_rows and _col_vals over _col_start[j:j + 2]
        cols, self._col_rows = A.T.nonzero()
        self._col_vals = A.T[cols, self._col_rows]
        self._col_start = np.searchsorted(cols, np.arange(n + 1))

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
        scattering those columns costs more than the whole update, so
        matrices under ``GATHER_ROWS`` rows are updated whole.  The gathered
        columns are taken as rows of ``binv.T``, so the broadcast's inner
        loop runs along the m entries of a column, not across the few
        columns (a median of 8 of 210 on the ground local LP): 10 instead of
        17 us a pivot there.  Both forms compute the products of
        ``np.outer(d / piv, binv[r])``, in the large form with the factors
        swapped, which IEEE multiplication leaves bit for bit the same.
        """
        piv = d[r]
        binv_r = binv[r].copy()
        if self.m >= GATHER_ROWS:
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

    def _price(self, cb, binv, cs, rc_struct, fixed):
        """Duals ``y = cb @ binv`` and, in place, the structural reduced
        costs ``cs - y @ A``, fixed-zero columns at ``-inf``; returns ``y``."""
        y = cb @ binv
        np.subtract(cs, y @ self.A, out=rc_struct)
        if fixed.size:
            rc_struct[fixed] = -np.inf
        return y

    def _update_prices(self, y, rc_struct, binv_r, rc_q):
        """Move ``y`` and the structural reduced costs ``rc_struct``, in
        place, past a pivot whose entering column had reduced cost ``rc_q``;
        ``binv_r`` is the pivot row of the updated inverse.  ``y`` gains
        ``rc_q * binv_r`` and the reduced costs lose ``rc_q * binv_r @ A``,
        both over the nonzero columns of ``binv_r``, so over those rows of
        ``A`` alone."""
        nz = binv_r.nonzero()[0]
        step = rc_q * binv_r[nz]
        y[nz] += step
        rc_struct -= step @ self.A[nz]

    def _ftran(self, binv, q):
        """``binv @ a_q``: a structural column through its nonzeros only."""
        if q >= self.n:
            return binv[:, (q - self.n) // 2] * self._unit_coef[q]
        s, e = self._col_start[q], self._col_start[q + 1]
        return self._col_vals[s:e] @ binv.T[self._col_rows[s:e]]

    def _iterate(self, c_struct, basis, binv, phase, xb=None):
        """Pricing rounds from ``basis`` to optimality; ``xb`` is
        ``binv @ self.b`` when the caller has it already.

        On LPs of ``UPDATE_PRICES_ROWS`` rows or more the duals and reduced
        costs are carried from round to round by ``_update_prices`` and the
        entering column goes through ``_ftran``; they are priced afresh at
        the start, after each factorization and whenever the carried ones
        show no improving column, so a solve ends only on exact prices.
        Smaller LPs price every round from scratch."""
        m, n = self.m, self.n
        carry = m >= UPDATE_PRICES_ROWS
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
        y = None        # the duals; None when they are to be priced afresh
        carried = False     # whether y and rc_struct were updated, not priced
        # the pivot loop calls array methods, not np.argmax and np.nonzero,
        # whose wrappers cost about 1 us a call: 8% of the LP time on LPs of
        # a few dozen rows.  Besides the products with binv and A, a round
        # works on the candidate rows of the ratio test and the nonzero
        # columns of the leaving row of binv (see _pivot)
        while True:
            iters += 1
            if iters > budget:
                raise RuntimeError(f"simplex phase {phase} made {budget} pricing rounds "
                                   f"without reaching optimality (m={m}, n={n})")
            while True:
                if y is None:
                    y = self._price(cb, binv, cs, rc_struct, fixed)
                    carried = False
                if slack_rows.size:
                    np.multiply(y[slack_rows], neg_sign, out=rc_slack)
                # Dantzig: the largest reduced cost; Bland: the first positive
                k = (rc > OPT_TOL).argmax() if bland else rc.argmax()
                # carried costs that show no improving column are priced afresh
                if rc[k] > OPT_TOL or not carried:
                    break
                y = None
            if not rc[k] > OPT_TOL:
                nb = self._factorize(basis) if self._refactor_due(basis, binv, True) else None
                if nb is None:
                    break
                binv, xb, y = nb, nb @ self.b, None
                xb[np.abs(xb) < 1e-12] = 0.0
                continue
            q = int(enter_codes[k])
            d = self._ftran(binv, q) if carry else binv @ self._column(q)
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
                self.degenerate_pivots += 1
                degenerate_count += 1
                if degenerate_count > bland_threshold:
                    bland = True
            else:
                degenerate_count = 0
            basis[r] = q
            cb[r] = cs[q] if q < n else 0.0
            self._pivot(binv, r, d)
            if carry:
                self._update_prices(y, rc_struct, binv[r], rc[k])
                carried = True
            else:
                y = None
            # a step of exactly 0 moves no entry of xb, which stays clean
            step = xb[r] / d[r]
            if step:
                xb -= step * d
                xb[r] = step
                xb[np.abs(xb) < 1e-12] = 0.0
            else:
                xb[r] = 0.0
            if self._refactor_due(basis, binv, False):
                nb = self._factorize(basis)
                if nb is not None:
                    binv, xb, y = nb, nb @ self.b, None
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
