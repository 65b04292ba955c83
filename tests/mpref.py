"""mpmath references for the letter coefficients, independent of ellbar's
series: sigma from mpmath's theta_1 on the lattice's own periods, and g_m as
the Cauchy coefficients of w sigma(z + w) / (sigma(z) sigma(w)) in w."""

import mpmath as mp


class SigmaReference:
    """sigma, g_m and f_n for one lattice at ``dps`` digits.

    The g_m are trapezoid sums over ``nodes`` points of the circle
    |w| = a/6, a the shortest period; the nearest pole in w is at distance
    a, so each coefficient is exact to 6^-nodes relative.
    """

    def __init__(self, L, dps=40, nodes=24):
        self.dps = dps
        with mp.workdps(dps):
            self.w1 = mp.mpc(L._w1r)
            self.w2 = mp.mpc(L._w2r)
            self.q = mp.exp(1j * mp.pi * mp.mpc(L._w2r) / self.w1)
            th1 = mp.jtheta(1, 0, self.q, 1)
            # sigma on Z + tau Z is exp(e1 u^2 / 2) theta_1(u) / theta_1'(0)
            # with no u^3 term: e1 = -theta_1'''(0) / (3 theta_1'(0)) in u
            self.e1 = -(mp.pi ** 2) / 3 * mp.jtheta(1, 0, self.q, 3) / th1
            self.th1p = mp.pi * th1
            r = abs(self.w1) / 6
            self.ws = [r * mp.expjpi(mp.mpf(2 * k) / nodes) for k in range(nodes)]
            self.sws = [self.sigma(w) for w in self.ws]

    def sigma(self, x):
        u = x / self.w1
        return self.w1 * mp.exp(self.e1 * u * u / 2) * mp.jtheta(1, mp.pi * u, self.q) / self.th1p

    def eta1(self):
        """zeta(z + omega) - zeta(z) for the shortest period omega."""
        with mp.workdps(self.dps):
            return self.e1 / self.w1

    def eta(self, lam):
        """zeta(z + lam) - zeta(z) for the lattice point lam, from numerical
        derivatives of sigma at one point away from the lattice."""
        with mp.workdps(self.dps):
            x = mp.mpf("0.31") * self.w1 + mp.mpf("0.23") * self.w2

            def zeta(y):
                return mp.diff(self.sigma, y) / self.sigma(y)

            return zeta(x + mp.mpc(lam)) - zeta(x)

    def g(self, z, nmax):
        """[g_0, ..., g_nmax] at z (not reduced) as mpc."""
        with mp.workdps(self.dps):
            z = mp.mpc(z)
            sz = self.sigma(z)
            vals = [w * self.sigma(z + w) / (sz * sw) for w, sw in zip(self.ws, self.sws)]
            return [mp.fsum(v * w ** -m for v, w in zip(vals, self.ws)) / len(vals)
                    for m in range(nmax + 1)]

    def f(self, z, s, nmax):
        """[f_0, ..., f_nmax] at (z, s): sum_j (-s)^j / j! g_{n-j}."""
        g = self.g(z, nmax)
        with mp.workdps(self.dps):
            s = mp.mpc(s)
            return [mp.fsum((-s) ** j / mp.factorial(j) * g[n - j] for j in range(n + 1))
                    for n in range(nmax + 1)]

    def line_integrals(self, za, zb, poles, nmax, sa=0, sb=0):
        """[int f_n(z, s) dz for n = 1..nmax] along the line (za, sa) ->
        (zb, sb), s carried linearly, which passes the lattice points lam of
        ``poles``, a list of (lam, eta(lam)).

        f_n has the simple pole (eta - s_lam)^(n-1) / (n-1)! / (z - lam) at
        each of them, s_lam the value at z = lam of s as an affine function
        of z; each pole's integral is taken exactly, and the smooth rest by
        mpmath's Gauss-Legendre quadrature to 20 digits, the interval broken
        at each lam's closest approach.  Returns (values, quadrature error).
        """
        cache = {}
        with mp.workdps(self.dps):
            za, zb, sa, sb = (mp.mpc(v) for v in (za, zb, sa, sb))
            poles = [(mp.mpc(lam), mp.mpc(eta)) for lam, eta in poles]
            dz = zb - za
            s_lam = [sa + (lam - za) / dz * (sb - sa) for lam, _ in poles]
            closest = (mp.re((lam - za) * mp.conj(dz)) / abs(dz) ** 2 for lam, _ in poles)
            cuts = [0, *sorted(t for t in closest if 0 < t < 1), 1]

            def rest(t, n, res):
                if t not in cache:
                    z = za + t * dz
                    cache[t] = (z, self.f(z, sa + t * (sb - sa), nmax))
                z, f = cache[t]
                return (f[n] - sum(r / (z - lam) for r, (lam, _) in zip(res, poles))) * dz

            vals, err = [], mp.mpf(0)
            for n in range(1, nmax + 1):
                res = [(eta - s) ** (n - 1) / mp.factorial(n - 1) for (_, eta), s in zip(poles, s_lam)]
                with mp.workdps(20):
                    v, e = mp.quad(lambda t: rest(t, n, res), cuts, method="gauss-legendre", error=True)
                pole = sum(r * mp.log((zb - lam) / (za - lam)) for r, (lam, _) in zip(res, poles))
                vals.append(complex(v + pole))
                err = max(err, e)
            return vals, float(err)
