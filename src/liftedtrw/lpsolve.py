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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
OPT_TOL = 1e-9
FEAS_TOL = 1e-7
REFACTOR_EVERY = 50


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
        items = tuple(sorted((int(j), float(c)) for j, c in
                             (coeffs.items() if isinstance(coeffs, dict) else coeffs)
                             if c != 0.0))
        return Row(items, rel, float(rhs), tag)

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

    Keeps the basis factorization alive between solves so that re-solving
    after an objective change (the common case in conditional gradient loops)
    costs only a few pivots.
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

    # -- column encoding helpers -------------------------------------------
    def _is_slack(self, j):
        return j >= self.n and (j - self.n) % 2 == 0

    def _is_art(self, j):
        return j >= self.n and (j - self.n) % 2 == 1

    def _row_of(self, j):
        return (j - self.n) // 2

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
        self._outer_buf = np.empty((m, m)) if m else np.empty((0, 0))

    def add_rows(self, rows):
        basis = self._basis
        self.rows.extend(rows)
        self._build()
        if basis is not None:
            extra = []
            for i in range(self.m - len(rows), self.m):
                row = self.rows[i]
                enc = self.n + 2 * i if row.rel == "<=" and row.rhs >= 0 else self.n + 2 * i + 1
                extra.append(enc)
            self._basis = list(basis) + extra
        self._binv = None

    def _column(self, j):
        if j < self.n:
            return self.A[:, j]
        col = np.zeros(self.m)
        i = self._row_of(j)
        col[i] = self.slack_sign[i] if self._is_slack(j) else 1.0
        return col

    def _basis_matrix(self, basis):
        B = np.zeros((self.m, self.m))
        for k, j in enumerate(basis):
            B[:, k] = self._column(j)
        return B

    def _factorize(self, basis):
        try:
            binv = np.linalg.inv(self._basis_matrix(basis))
        except np.linalg.LinAlgError:
            return None
        self._updates = 0
        return binv

    def _initial_basis(self):
        basis = []
        for i, row in enumerate(self.rows):
            if row.rel == "<=" and row.rhs >= 0:
                basis.append(self.n + 2 * i)
            else:
                basis.append(self.n + 2 * i + 1)
        return basis

    def _objvec(self, basis, c_struct, phase):
        cb = np.zeros(len(basis))
        for k, j in enumerate(basis):
            if j < self.n:
                cb[k] = c_struct[j] if phase == 2 else 0.0
            elif self._is_art(j) and phase == 1:
                cb[k] = -1.0
        return cb

    def _iterate(self, c_struct, basis, binv, phase):
        m = self.m
        xb = binv @ self.b
        xb[np.abs(xb) < 1e-12] = 0.0
        degenerate_count = 0
        bland = False
        bland_threshold = 10 * (m + self.n)
        iters = 0
        cb = self._objvec(basis, c_struct, phase)
        has_slack = self.slack_sign.nonzero()[0]
        cs = c_struct if phase == 2 else np.zeros(self.n)
        while True:
            iters += 1
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
                q = int(np.argmax(rc))
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
                    k = int(np.argmax(rs))
                    if rs[k] > best_rc:
                        best_q = self.n + 2 * int(has_slack[k])
                        best_rc = rs[k]
            if best_q < 0:
                break
            q = best_q
            d = binv @ self._column(q) if q >= self.n else binv @ self.A[:, q]
            pos = d > PIVOT_TOL
            if not pos.any():
                raise UnboundedError("LP is unbounded (internal error)")
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(pos, np.maximum(xb, 0.0) / np.where(pos, d, 1.0), np.inf)
            rmin = ratios.min()
            ties = np.nonzero(ratios <= rmin + 1e-12)[0]
            art_ties = [r for r in ties if self._is_art(basis[r])]
            if art_ties:
                r = min(art_ties, key=lambda i: basis[i])
            else:
                r = min(ties, key=lambda i: basis[i])
            if rmin < 1e-12:
                degenerate_count += 1
                if degenerate_count > bland_threshold:
                    bland = True
            else:
                degenerate_count = 0
            basis[r] = q
            cb[r] = cs[q] if q < self.n else (-1.0 if phase == 1 and self._is_art(q) else 0.0)
            piv = d[r]
            binv_r = binv[r].copy()
            np.outer(d / piv, binv_r, out=self._outer_buf)
            binv -= self._outer_buf
            binv[r] = binv_r / piv
            step = xb[r] / piv
            xb -= step * d
            xb[r] = step
            self._updates += 1
            if self._updates >= REFACTOR_EVERY:
                nb = self._factorize(basis)
                if nb is not None:
                    binv = nb
                    xb = binv @ self.b
            xb[np.abs(xb) < 1e-12] = 0.0
        return basis, binv, xb, iters

    def _phase1(self, basis):
        binv = self._factorize(basis)
        if binv is None:
            basis = self._initial_basis()
            binv = self._factorize(basis)
        basis, binv, xb, it1 = self._iterate(np.zeros(self.n), basis, binv, phase=1)
        infeas = float(sum(v for j, v in zip(basis, xb) if self._is_art(j)))
        if infeas > 1e-7:
            raise InfeasibleError(f"phase 1 residual {infeas:.3e}")
        # pivot remaining artificials out where the row is not redundant
        for r in range(self.m):
            if not self._is_art(basis[r]):
                continue
            row_vals = binv[r] @ self.A
            row_vals[self.block_struct] = 0.0
            cand = np.nonzero(np.abs(row_vals) > 1e-7)[0]
            q = int(cand[0]) if cand.size else -1
            if q < 0:
                for i in np.nonzero(self.slack_sign)[0]:
                    if abs(binv[r, i] * self.slack_sign[i]) > 1e-7:
                        q = self.n + 2 * int(i)
                        break
            if q >= 0:
                d = binv @ self._column(q) if q >= self.n else binv @ self.A[:, q]
                piv = d[r]
                basis[r] = q
                binv_r = binv[r].copy()
                binv -= np.outer(d, binv_r) / piv
                binv[r] = binv_r / piv
                self._updates += 1
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
            return xb.min() >= -FEAS_TOL and not any(
                self._is_art(j) and v > FEAS_TOL for j, v in zip(cand, xb))

        basis = None
        binv = None
        if warm is not None and len(warm.cols) == self.m:
            cand = list(warm.cols)
            if all(j < self.n + 2 * self.m for j in cand):
                if cand == self._basis and self._binv is not None:
                    binv = self._binv
                else:
                    binv = self._factorize(cand)
                if usable(cand, binv):
                    basis = cand
                else:
                    binv = None
        if basis is None and self._basis is not None and len(self._basis) == self.m:
            cand = list(self._basis)
            binv = self._binv if self._binv is not None else self._factorize(cand)
            if usable(cand, binv):
                basis = cand
            else:
                binv = None
        if basis is None:
            basis = self._initial_basis()
            basis, binv, it1 = self._phase1(basis)
            iters += it1

        basis, binv, xb, it2 = self._iterate(c_struct, basis, binv, phase=2)
        iters += it2

        x = np.zeros(self.n)
        for j, v in zip(basis, xb):
            if j < self.n:
                x[j] = max(v, 0.0)
        self._basis = list(basis)
        self._binv = binv
        return SolveResult(
            x=x,
            objective=float(c_struct @ x),
            basis=Basis(tuple(basis)),
            iterations=iters,
        )

