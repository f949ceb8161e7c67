"""Limited-memory BFGS in the compact form of Byrd, Nocedal & Schnabel.

semistationary2d's momentum solve keeps its L-BFGS matrix here. The
compact form applies the initial matrix H0 once per direction, where
the two-loop recursion applies it to the newest y as well, so an
expensive H0 (a preconditioner) costs one application per iteration.
"""

import numpy as np


class CompactInverse:
    """The L-BFGS inverse Hessian of the newest m pairs (s, y), in the
    compact form of Byrd, Nocedal & Schnabel (Math. Programming 63, 1994,
    eq. 2.6) with initial matrix gamma H0:

        H = gamma H0 + [S, gamma W] M [S^T; gamma W^T],   W = H0 Y,
        M = [[R^-T (D + gamma Y^T W) R^-1, -R^-T], [-R^-1, 0]],

    R_ij = s_i'y_j for i <= j, D = diag(s_i'y_i), gamma = s'y / y'w of
    the newest pair. H0 must not change while pairs are stored.

    Slot j of one zero-initialised ring buffer holds s_j and w_j = H0 y_j
    as rows 2j and 2j + 1, so the slots in use are its leading rows and
    each product with all of S and W is one BLAS call. R^-1, D and Y^T W
    are k x k, k <= m, oldest pair first, and are updated in place of
    being refactored when a pair comes or goes.
    """

    def __init__(self, m, size):
        self.m = m
        self.rows = np.zeros((2 * m, size))
        self.clear()

    def clear(self):
        self.order = []               # slots, oldest pair first
        self.Rinv = np.zeros((0, 0))
        self.D = np.zeros(0)
        self.YW = np.zeros((0, 0))

    def _products(self, v):
        """(S^T v, W^T v) over the stored pairs, oldest first."""
        k = len(self.order)
        sw = (self.rows[:2 * k] @ v.ravel()).reshape(k, 2)[self.order]
        return sw[:, 0], sw[:, 1]

    def add(self, s, y, w, sy, yw):
        """Store the pair (s, y) with w = H0 y, sy = s'y > 0, yw = y'w > 0;
        the oldest pair goes once m are stored."""
        sY, wY = self._products(y)
        slot = len(self.order)
        if slot == self.m:
            slot = self.order.pop(0)
            sY, wY = sY[1:], wY[1:]
            self.Rinv = self.Rinv[1:, 1:]
            self.D = self.D[1:]
            self.YW = self.YW[1:, 1:]
        k = len(self.order)
        # R = [[R, S^T y], [0, s'y]] has R^-1 = [[R^-1, -R^-1 S^T y / s'y],
        # [0, 1 / s'y]]
        Rinv = np.zeros((k + 1, k + 1))
        Rinv[:k, :k] = self.Rinv
        Rinv[:k, k] = -(self.Rinv @ sY) / sy
        Rinv[k, k] = 1.0 / sy
        YW = np.empty((k + 1, k + 1))
        YW[:k, :k] = self.YW
        YW[:k, k] = YW[k, :k] = wY
        YW[k, k] = yw
        self.Rinv, self.YW = Rinv, YW
        self.D = np.append(self.D, sy)
        self.rows[2 * slot] = s.ravel()
        self.rows[2 * slot + 1] = w.ravel()
        self.order.append(slot)
        self.gamma = sy / yw

    def apply(self, q, h):
        """H q, given h = H0 q."""
        k = len(self.order)
        if k == 0:
            return h
        gamma = self.gamma
        sq, wq = self._products(q)
        r = self.Rinv @ sq
        c = np.empty((k, 2))
        c[self.order, 0] = self.Rinv.T @ (
            self.D * r + gamma * (self.YW @ r - wq))
        c[self.order, 1] = -gamma * r
        Hq = c.ravel() @ self.rows[:2 * k]
        Hq += gamma * h.ravel()
        return Hq.reshape(q.shape)
