"""A 30-digit reference for the ray-length MGF, in the paper's own form.

The paper writes the MGF through the closed forms of two erfc-times-Hermite
integrals, K and J (see `halfgilbert.analytic.k_integral` and `j_integral`):

    c(t)   = t erfc(-t/sqrt(2)) / [ sqrt(2/pi) e^(-t^2/2) H_{q-1}(-t/sqrt(2))
                                    - q J(t, q) ],
    M_t(y) = 1 + c(t) H_{q-1}((y - t)/sqrt(2)).

This module evaluates the same formulas in mpmath at 30 digits, for real or
complex t, and shares no code with the package.  It also gives the H_q form
that the package evaluates, c(t) = sqrt(2) t / H_q(-t/sqrt(2)) (the paper's
bracket equals erfc(-t/sqrt(2)) H_q(-t/sqrt(2)) / sqrt(2); see README), at
40 digits and for real t, and the erfc-times-Hermite integral behind J by
direct quadrature in w, to check J against its definition.  Reference moments
come from the Cauchy integral of M_t(0) around t = 0, taken by the trapezoid
rule on a circle (Lyness & Moler 1967): on |t| = r the error of the order-k
coefficient falls like (r / t*)^N, where t* is the pole of M nearest 0.
"""

import functools

import mpmath as mp

mp.mp.dps = 30

# Radius of the Cauchy circle, as a fraction of the nearest pole, and the
# number of trapezoid nodes on it: the aliasing error is about 3^-64 ~ 1e-31.
RADIUS_FRACTION = mp.mpf(1) / 3
NODES = 64

# Where t* lies past T_LIMIT (at tiny q), the circle's radius is T_LIMIT / 3:
# the paper form cancels at scale e^(|t|^2/2) for complex t, so a wider
# circle costs digits.  The package's own domain ends at |t| = 5 too.
T_LIMIT = 5


def k_integral(t, q):
    """integral_{-t/sqrt(2)}^{0} erfc(z) H_{q-1}(z) dz, by the paper's 1F1 form."""
    s = t / mp.sqrt(2)
    boundary = (
        2**q * mp.sqrt(mp.pi) / mp.gamma((1 - q) / 2) - mp.erfc(-s) * mp.hermite(q, -s)
    ) / (2 * q)
    w = -t * t / 2
    bracket = mp.sqrt(2) * t * mp.cospi(q / 2) * mp.gamma((q + 1) / 2) * mp.hyp1f1(
        (q + 1) / 2, mp.mpf(3) / 2, w
    ) + mp.sinpi(q / 2) * mp.gamma(q / 2) * (mp.hyp1f1(q / 2, mp.mpf(1) / 2, w) - 1)
    return boundary + 2**q / (2 * q * mp.pi) * bracket


def j_integral(t, q):
    """integral_0^inf erfc((u-t)/sqrt(2)) H_{q-1}((u-t)/sqrt(2)) du."""
    constant = mp.gamma(-q / 2) / (4 * mp.gamma(1 - q)) - 2**q / (
        q * q * mp.gamma(-q / 2)
    )
    return mp.sqrt(2) * (k_integral(t, q) + constant)


def erfc_hermite_tail(w0, q):
    """integral_{w0}^inf erfc(w) H_{q-1}(w) dw, integrated in w directly.

    Split at w0, 0, 2, 6 and inf; Gauss-Legendre reaches 30 digits on the
    smooth pieces in about half the nodes of tanh-sinh.  It costs 0.25-0.4 s
    a point, against 1-13 ms for sqrt(2) times the same integral through J.
    """
    w0, q = mp.mpf(w0), mp.mpf(q)
    points = [w0] + [mp.mpf(p) for p in (0, 2, 6) if p > w0] + [mp.inf]
    return mp.quad(
        lambda w: mp.erfc(w) * mp.hermite(q - 1, w), points, method="gauss-legendre"
    )


def denominator(t, q):
    return mp.sqrt(2 / mp.pi) * mp.exp(-t * t / 2) * mp.hermite(
        q - 1, -t / mp.sqrt(2)
    ) - q * j_integral(t, q)


def c_coefficient(t, q):
    return t * mp.erfc(-t / mp.sqrt(2)) / denominator(t, q)


def mgf(t, y, q):
    """M_t(y) for real or complex t; q and y real."""
    t, y, q = mp.mpmathify(t), mp.mpmathify(y), mp.mpf(q)
    if t == 0:
        return mp.mpf(1)
    return 1 + c_coefficient(t, q) * mp.hermite(q - 1, (y - t) / mp.sqrt(2))


@mp.workdps(40)
def c_coefficient_hermite(t, q):
    """c(t) = sqrt(2) t / H_q(-t/sqrt(2)), for real t."""
    t, q = mp.mpf(t), mp.mpf(q)
    return mp.sqrt(2) * t / mp.hermite(q, -t / mp.sqrt(2))


@mp.workdps(40)
def mgf_hermite(t, y, q):
    """M_t(y) = 1 + c(t) H_{q-1}((y - t)/sqrt(2)) in the H_q form, for real t."""
    t, y, q = mp.mpf(t), mp.mpf(y), mp.mpf(q)
    return 1 + c_coefficient_hermite(t, q) * mp.hermite(q - 1, (y - t) / mp.sqrt(2))


@functools.lru_cache(maxsize=None)
def divergence_point(q):
    """The real zero t* of the denominator in (0, T_LIMIT], or None."""
    q = mp.mpf(q)
    step = mp.mpf(1) / 20
    t = step
    while t <= T_LIMIT:
        if denominator(t, q) <= 0:
            return mp.findroot(
                lambda s: denominator(s, q), (t - step, t), solver="anderson"
            )
        t += step
    return None


@functools.lru_cache(maxsize=None)
def moments(q, max_order=6):
    """Raw moments mu_1 .. mu_max_order of the ray length at unit intensity.

    mu_k = k! [t^k] M_t(0), each coefficient by the N-point trapezoid rule on
    |t| = r.  The MGF of a positive variable has its nearest singularity on
    the positive real axis (Pringsheim), at t*, so r = min(t*, T_LIMIT) / 3.
    """
    t_star = divergence_point(q)
    r = RADIUS_FRACTION * (T_LIMIT if t_star is None else t_star)
    nodes = [r * mp.expjpi(2 * mp.mpf(j) / NODES) for j in range(NODES)]
    values = [mgf(t, 0, q) for t in nodes]
    return tuple(
        float(
            mp.factorial(k)
            * mp.re(mp.fsum(v / t**k for v, t in zip(values, nodes)))
            / NODES
        )
        for k in range(1, max_order + 1)
    )
