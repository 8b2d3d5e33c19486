"""Method of moving asymptotes, in the standard primal-dual form.

The subproblem replaces objective and constraints by separable rational
approximations whose asymptotes adapt to the iteration history: they
widen while a variable keeps moving in one direction and contract when
it oscillates.  The subproblem is solved by an interior-point Newton
iteration on the full set of primal and dual variables; with far fewer
constraints than variables the Newton step reduces to an (m+1)-square
dense system.

Each variable may stand for several equal ones: with weights w, variable
i counts w_i times in every sum over the variables (the constraint
approximations, the Newton system and the residual 2-norm), so a step on
the orbit representatives of a symmetric design, weighted by the orbit
sizes, is the step that the full design would take.  Max-norms and step
lengths need no weights.  Without weights every variable counts once, and
the arithmetic is that of the unweighted method bit for bit: w multiplies
before anything is divided by a variable's terms.

Constraint convention: fval <= 0 is feasible.  All vectors are numpy
arrays; the caller owns the box bounds.
"""

import warnings

import numpy as np

from .errors import ConfigError

ASYINIT = 0.5
ASYINCR = 1.2
ASYDECR = 0.7
ALBEFA = 0.1
RAA0 = 1e-5
EPSIMIN = 1e-9
# the standard choice for plain inequality constraints: z is unused (a = 0)
# and the elastic variables y carry a linear penalty C_PENALTY, no quadratic
A0 = 1.0
C_PENALTY = 1000.0


class MMA:
    """Holds the asymptote state between update() calls."""

    def __init__(self, n, m, xmin, xmax, move, weights=None):
        self.n = n
        self.m = m
        self.xmin = np.broadcast_to(np.asarray(xmin, float), (n,)).copy()
        self.xmax = np.broadcast_to(np.asarray(xmax, float), (n,)).copy()
        if weights is None:
            self.w = np.ones(n)
        else:
            self.w = np.asarray(weights, dtype=float)
            if self.w.shape != (n,) or not np.all(np.isfinite(self.w)) \
                    or not np.all(self.w > 0.0):
                raise ConfigError(f"MMA weights must be {n} positive finite "
                                  f"values, got shape {self.w.shape}, "
                                  f"min {self.w.min(initial=np.inf)}")
        self.move = move
        self.a0 = A0
        self.a = np.zeros(m)
        self.c = np.full(m, C_PENALTY)
        self.d = np.zeros(m)
        self.iter = 0
        self.low = None
        self.upp = None
        self.xold1 = None
        self.xold2 = None
        self.lam = np.zeros(m)

    def update(self, xval, df0dx, fval, dfdx):
        """One design step; returns the new variables.

        xval (n,), df0dx (n,), fval (m,), dfdx (m, n).
        """
        xval = np.asarray(xval, float)
        df0dx = np.asarray(df0dx, float)
        fval = np.atleast_1d(np.asarray(fval, float))
        dfdx = np.atleast_2d(np.asarray(dfdx, float))
        self.iter += 1
        xrange = self.xmax - self.xmin

        if self.iter < 3:
            self.low = xval - ASYINIT * xrange
            self.upp = xval + ASYINIT * xrange
        else:
            swing = (xval - self.xold1) * (self.xold1 - self.xold2)
            factor = np.ones(self.n)
            factor[swing > 0.0] = ASYINCR
            factor[swing < 0.0] = ASYDECR
            self.low = xval - factor * (self.xold1 - self.low)
            self.upp = xval + factor * (self.upp - self.xold1)
            # proximity clamp 1e-4, not the usual 0.01: the subproblem step
            # is always a fixed fraction of the asymptote gap, so a design
            # stuck oscillating settles to gap-size amplitude, which must
            # end up below the design-change termination threshold
            self.low = np.clip(self.low, xval - 10.0 * xrange,
                               xval - 1e-4 * xrange)
            self.upp = np.clip(self.upp, xval + 1e-4 * xrange,
                               xval + 10.0 * xrange)

        alfa = np.maximum.reduce([self.low + ALBEFA * (xval - self.low),
                                  xval - self.move * xrange, self.xmin])
        beta = np.minimum.reduce([self.upp - ALBEFA * (self.upp - xval),
                                  xval + self.move * xrange, self.xmax])

        xmami = np.maximum(xrange, 1e-5)
        ux1 = self.upp - xval
        xl1 = xval - self.low
        p0 = np.maximum(df0dx, 0.0)
        q0 = np.maximum(-df0dx, 0.0)
        pq0 = 0.001 * (p0 + q0) + RAA0 / xmami
        p0 = (p0 + pq0) * ux1 ** 2
        q0 = (q0 + pq0) * xl1 ** 2
        pp = np.maximum(dfdx, 0.0)
        qq = np.maximum(-dfdx, 0.0)
        ppqq = 0.001 * (pp + qq) + RAA0 / xmami
        pp = (pp + ppqq) * ux1 ** 2
        qq = (qq + ppqq) * xl1 ** 2
        b = pp @ (self.w / ux1) + qq @ (self.w / xl1) - fval

        xnew, lam = _subsolv(self, alfa, beta, p0, q0, pp, qq, b)
        if not (np.all(np.isfinite(xnew)) and np.all(np.isfinite(lam))):
            warnings.warn("subproblem solve failed; keeping the iterate",
                          RuntimeWarning, stacklevel=2)
            xnew, lam = xval.copy(), np.zeros(self.m)

        self.xold2 = self.xold1
        self.xold1 = xval.copy()
        self.lam = lam
        return xnew


def _subsolv(mma, alfa, beta, p0, q0, pp, qq, b):
    """Interior-point solve of the separable subproblem.

    min  sum p0/(upp-x) + q0/(x-low) + a0 z + sum(c y + d y^2 / 2)
    s.t. sum pp_i/(upp-x) + qq_i/(x-low) - a_i z - y_i <= b_i,
         alfa <= x <= beta, y >= 0, z >= 0.
    """
    m, n = mma.m, mma.n
    low, upp, w = mma.low, mma.upp, mma.w
    a0, a, c, d = mma.a0, mma.a, mma.c, mma.d

    epsi = 1.0
    x = 0.5 * (alfa + beta)
    y = np.ones(m)
    z = 1.0
    lam = np.ones(m)
    xsi = np.maximum(1.0 / (x - alfa), 1.0)
    eta = np.maximum(1.0 / (beta - x), 1.0)
    mu = np.maximum(0.5 * c, 1.0)
    zet = 1.0
    s = np.ones(m)

    # the residual, one block per optimality condition, and the Newton
    # system, filled in place
    res = np.empty(3 * n + 4 * m + 2)
    blocks = np.cumsum([n, m, 1, m, n, n, m, 1])
    rx, ry, rz, rl, rxsi, reta, rmu, rzet, rs = np.split(res, blocks)
    # the residual's 2-norm counts the entries of a variable, in rx, rxsi
    # and reta, w times
    root_w = np.ones_like(res)
    wx, _, _, _, wxsi, weta, _, _, _ = np.split(root_w, blocks)
    wx[:] = wxsi[:] = weta[:] = np.sqrt(w)
    aa = np.empty((m + 1, m + 1))
    rhs = np.empty(m + 1)
    diag = np.diag_indices(m)

    def residual(x, y, z, lam, xsi, eta, mu, zet, s, epsi):
        """(terms, |res|_2, |res|_inf): terms are the point's values that
        the Newton step at it reuses."""
        ux1 = upp - x
        xl1 = x - low
        ux2 = ux1 ** 2
        xl2 = xl1 ** 2
        plam = p0 + lam @ pp
        qlam = q0 + lam @ qq
        gvec = pp @ (w / ux1) + qq @ (w / xl1)
        rx[:] = plam / ux2 - qlam / xl2 - xsi + eta
        ry[:] = c + d * y - mu - lam
        rz[:] = a0 - zet - a @ lam
        rl[:] = gvec - a * z - y + s - b
        rxsi[:] = xsi * (x - alfa) - epsi
        reta[:] = eta * (beta - x) - epsi
        rmu[:] = mu * y - epsi
        rzet[:] = zet * z - epsi
        rs[:] = lam * s - epsi
        terms = ux1, xl1, ux2, xl2, plam, qlam, gvec
        return terms, np.linalg.norm(res * root_w), np.abs(res).max()

    while epsi > EPSIMIN:
        terms, resnorm, resmax = residual(x, y, z, lam, xsi, eta, mu, zet,
                                          s, epsi)
        for _ in range(200):
            if resmax <= 0.9 * epsi:
                break
            ux1, xl1, ux2, xl2, plam, qlam, gvec = terms
            gg = pp / ux2 - qq / xl2

            delx = plam / ux2 - qlam / xl2 \
                - epsi / (x - alfa) + epsi / (beta - x)
            dely = c + d * y - lam - epsi / y
            delz = a0 - a @ lam - epsi / z
            dellam = gvec - a * z - y - b + epsi / lam

            diagx = 2.0 * (plam / ux1 ** 3 + qlam / xl1 ** 3) \
                + xsi / (x - alfa) + eta / (beta - x)
            diagy = d + mu / y
            diaglamyi = s / lam + 1.0 / diagy

            # m << n: eliminate x and y, solve the (m+1) system
            aa[:m, :m] = (gg * w / diagx) @ gg.T
            aa[diag] += diaglamyi
            aa[:m, m] = a
            aa[m, :m] = a
            aa[m, m] = -zet / z
            rhs[:m] = dellam + dely / diagy - gg @ (w * delx / diagx)
            rhs[m] = delz
            sol = np.linalg.solve(aa, rhs)
            dlam = sol[:m]
            dz = sol[m]
            dx = -(delx + dlam @ gg) / diagx
            dy = (dlam - dely) / diagy
            dxsi = -xsi + (epsi - xsi * dx) / (x - alfa)
            deta = -eta + (epsi + eta * dx) / (beta - x)
            dmu = -mu + (epsi - mu * dy) / y
            dzet = -zet + (epsi - zet * dz) / z
            ds = -s + (epsi - s * dlam) / lam

            xx = np.concatenate([y, [z], lam, xsi, eta, mu, [zet], s])
            dxx = np.concatenate([dy, [dz], dlam, dxsi, deta, dmu, [dzet], ds])
            step = max(np.max(-1.01 * dxx / xx),
                       np.max(-1.01 * dx / (x - alfa)),
                       np.max(1.01 * dx / (beta - x)), 1.0)
            steg = 1.0 / step

            xo, yo, zo = x, y, z
            lamo, xsio, etao = lam, xsi, eta
            muo, zeto, so = mu, zet, s
            resnew = 2.0 * resnorm
            for _ in range(50):
                if resnew <= resnorm:
                    break
                x = xo + steg * dx
                y = yo + steg * dy
                z = zo + steg * dz
                lam = lamo + steg * dlam
                xsi = xsio + steg * dxsi
                eta = etao + steg * deta
                mu = muo + steg * dmu
                zet = zeto + steg * dzet
                s = so + steg * ds
                terms, resnew, resmax = residual(x, y, z, lam, xsi, eta,
                                                 mu, zet, s, epsi)
                steg *= 0.5
            resnorm = resnew
        epsi *= 0.1

    return x, lam
