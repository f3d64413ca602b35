"""Information measures recovered from MMSE integrals over all snr.

For a discrete input, the mutual information of the scalar Gaussian channel
climbs to H(X) as snr grows, so H(X) = (1/2) integral of mmse(snr) dsnr.
Comparing the MMSE of a law against the Gaussian of the same variance in the
same way yields its non-Gaussianness (the KL divergence to that Gaussian),
hence its differential entropy and the entropy-power index gamma = exp(-D).
Mutual information between two finite variables falls out as the integrated
gap between unconditional and conditional estimation errors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import laws
from .errors import TailNotResolved
from .laws import DiscreteAtoms, InputLaw, variance
from .report import Report
from .scalar import ScalarChannel, mmse

_SNR_MIN = 1e-3
_POINTS_PER_DECADE = 40


@dataclass(frozen=True)
class TailPolicy:
    """Truncation control for the outer snr integral.

    The integrand is sampled on a log grid up to snr_max; tail_estimator
    picks how the integral beyond snr_max is closed from those samples:
      none            no closure: integrate to snr_max and stop
      exponential_fit fit f ~ A exp(-c snr) over [snr_max/10, snr_max] and
                      add f(snr_max)/c (discrete laws, whose MMSE decays
                      exponentially)
      gaussian_tail   fit f ~ C/snr^alpha over [snr_max/4, snr_max] and add
                      f(snr_max) snr_max/(alpha - 1) (laws with a density:
                      alpha = 2, or 3/2 with density jumps); alpha <= 1
                      raises TailNotResolved, the tail would diverge
    """
    snr_max: float = 80.0
    tail_estimator: str = "exponential_fit"

    def __post_init__(self):
        if self.snr_max < 1:
            raise ValueError("snr_max must be >= 1")
        if self.tail_estimator not in ("none", "gaussian_tail",
                                       "exponential_fit"):
            raise ValueError(f"unknown tail estimator {self.tail_estimator}")


@dataclass(frozen=True)
class JointAtoms:
    """Finite joint law of (X, Z) with real Z, as matched atom arrays."""
    x: np.ndarray
    z: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if not (x.shape == z.shape == p.shape) or x.ndim != 1:
            raise ValueError("x, z, probs must be matching 1-d arrays")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "probs", p)


def _snr_grid(snr_max: float) -> np.ndarray:
    n_decades = np.log10(snr_max / _SNR_MIN)
    n = int(round(_POINTS_PER_DECADE * n_decades)) + 1
    return np.geomspace(_SNR_MIN, snr_max, n)


def _tail_integral(grid: np.ndarray, values: np.ndarray,
                   estimator: str) -> float:
    """Integral beyond grid[-1] of an integrand known at the grid points.

    Each estimator closes the tail from a least-squares fit of log(values)
    over the grid points near snr_max (see TailPolicy).  An integrand that
    has vanished at snr_max has no tail.
    """
    if estimator == "none" or values[-1] < 1e-300:
        return 0.0
    s_max, f_max = grid[-1], values[-1]
    if estimator == "exponential_fit":
        sel = (grid >= s_max / 10) & (values > 0)
        if sel.sum() < 2:
            return 0.0
        rate = -np.polyfit(grid[sel], np.log(values[sel]), 1)[0]
        return float(f_max / rate) if rate > 0 else 0.0
    sel = (grid >= s_max / 4) & (values > 0)
    if sel.sum() < 2:
        return 0.0
    alpha = -np.polyfit(np.log(grid[sel]), np.log(values[sel]), 1)[0]
    if alpha <= 1.0:
        raise TailNotResolved(
            f"the integrand decays like snr^-{alpha:.3g} near snr_max = "
            f"{s_max:g}, so its tail integral diverges")
    return float(f_max * s_max / (alpha - 1.0))


def _snr_integral(f, f_at_zero: float, tail: TailPolicy):
    """Integral of f over all snr >= 0; returns it and f(snr_max).

    One trapezoid panel covers [0, _SNR_MIN]; the grid up to snr_max is
    integrated by the trapezoid rule in ln(snr) (the integrand snr*f is
    smooth across decades); the tail closure of ``tail`` adds the rest.
    """
    grid = _snr_grid(tail.snr_max)
    values = np.array([f(s) for s in grid])
    head = 0.5 * (f_at_zero + values[0]) * grid[0]
    main = float(np.trapezoid(values * grid, np.log(grid)))
    return (head + main + _tail_integral(grid, values, tail.tail_estimator),
            values[-1])


def _half_integral(f, f_at_zero: float, tail: TailPolicy, what: str) -> float:
    """Half the snr integral of an MMSE (or MMSE gap) that decays to 0.

    With no tail estimator the integral stops at snr_max, so f(snr_max)
    above 1e-4 of the estimate raises TailNotResolved.
    """
    total, f_last = _snr_integral(f, f_at_zero, tail)
    half = 0.5 * total
    if tail.tail_estimator == "none" and f_last > 1e-4 * max(half, 1e-12):
        raise TailNotResolved(
            f"the integrand at snr_max = {tail.snr_max:g} is {f_last:.3e}, "
            f"more than 1e-4 of the {what} estimate; raise snr_max or "
            "enable a tail estimator")
    return half


def _check_degenerate(atoms: DiscreteAtoms) -> None:
    live = atoms.probs[atoms.probs > 0]
    if live.size > 1 and np.any(live < 1e-6):
        raise ValueError(
            "atom probabilities below 1e-6 make the decay rate of the MMSE "
            "tail unreliable to fit; rejected")


def entropy_via_mmse(atoms: DiscreteAtoms, tail: TailPolicy | None = None,
                     g=None) -> float:
    """H(X) in nats as half the integral of mmse(g(X); snr) over all snr.

    g may be any injective map on the atom values (default identity); the
    limit does not depend on it because the integral only sees which atom
    was sent, not where it sits on the line.
    """
    tail = tail or TailPolicy()
    values = atoms.values if g is None else np.asarray(
        [g(v) for v in atoms.values], dtype=float)
    if np.unique(values).size != values.size:
        raise ValueError("g must be injective on the atom values")
    _check_degenerate(atoms)
    law = DiscreteAtoms(values=values, probs=atoms.probs)
    if law.values.size == 1:
        return 0.0
    return _half_integral(lambda s: mmse(ScalarChannel(law, s)),
                          variance(law), tail, "entropy")


def _default_nongauss_tail(law: InputLaw) -> TailPolicy:
    if isinstance(law, DiscreteAtoms):
        return TailPolicy(snr_max=100.0, tail_estimator="none")
    return TailPolicy(snr_max=1e4, tail_estimator="gaussian_tail")


def nongauss_integrand(law: InputLaw, snr: float) -> float:
    """sigma^2/(1 + snr sigma^2) - mmse(snr): the Gaussian MMSE excess."""
    v = variance(law)
    return v / (1.0 + snr * v) - mmse(ScalarChannel(law, snr))


def nongaussianness(law: InputLaw, tail: TailPolicy | None = None) -> float:
    """KL divergence from the law to the Gaussian of equal mean and variance.

    D = (1/2) integral over snr of [sigma^2/(1 + snr sigma^2) - mmse(snr)].
    For laws with a density the integrand decays like C/snr^alpha (alpha = 2
    for smooth densities, 3/2 with density jumps) and the gaussian_tail
    estimator closes the integral; discrete laws have infinite divergence
    and the truncated running value at snr_max is returned.
    """
    tail = tail or _default_nongauss_tail(law)
    if isinstance(law, DiscreteAtoms):
        tail = TailPolicy(tail.snr_max, "none")
    total, _ = _snr_integral(lambda s: nongauss_integrand(law, s), 0.0, tail)
    return 0.5 * total


def differential_entropy_via_mmse(law: InputLaw,
                                  tail: TailPolicy | None = None) -> float:
    """h(X) = (1/2) log(2 pi e sigma^2) - nongaussianness, nats."""
    if isinstance(law, DiscreteAtoms):
        raise ValueError("differential entropy requires a law with a density")
    v = variance(law)
    return 0.5 * np.log(2.0 * np.pi * np.e * v) - nongaussianness(
        law, tail)


def gamma_index(law: InputLaw, tail: TailPolicy | None = None) -> float:
    """gamma = exp(-D): 1 for Gaussian laws, smaller the harder to estimate."""
    return float(np.exp(-nongaussianness(law, tail)))


def gamma_epi_check(law_a: InputLaw, law_b: InputLaw,
                    tail: TailPolicy | None = None) -> Report:
    """Entropy-power inequality in gamma form for independent summands.

    With alpha = var_A / (var_A + var_B), checks
    alpha*gamma_A^2 + (1-alpha)*gamma_B^2 <= gamma_{A+B}^2.
    """
    g_a = gamma_index(law_a, tail)
    g_b = gamma_index(law_b, tail)
    g_sum = gamma_index(laws.convolve(law_a, law_b), tail)
    v_a, v_b = variance(law_a), variance(law_b)
    alpha = v_a / (v_a + v_b)
    lhs = alpha * g_a**2 + (1.0 - alpha) * g_b**2
    report = Report("gamma-epi")
    report.add("alpha*gA^2 + (1-alpha)*gB^2 <= g_{A+B}^2 (clipped slack)",
               min(g_sum**2 - lhs, 0.0), 0.0, 1e-6)
    for name, g in (("gamma_A", g_a), ("gamma_B", g_b),
                    ("gamma_{A+B}", g_sum)):
        report.add(f"{name} in (0, 1] (clipped excess over 1)",
                   max(g - 1.0, 0.0), 0.0, 1e-9)
    report.notes = (f"gamma_A={g_a:.6f}, gamma_B={g_b:.6f}, "
                    f"gamma_sum={g_sum:.6f}, slack={g_sum**2 - lhs:.3e}")
    return report


def _conditional_slices(joint: JointAtoms):
    """Marginal law of Z plus (weight, conditional law of Z) per X value."""
    z_vals, z_probs = laws._merge_atoms(joint.z, joint.probs)
    marginal = DiscreteAtoms(values=z_vals, probs=z_probs)
    slices = []
    for xv in np.unique(joint.x):
        sel = joint.x == xv
        w = joint.probs[sel].sum()
        zv, zp = laws._merge_atoms(joint.z[sel], joint.probs[sel] / w)
        slices.append((float(w), DiscreteAtoms(values=zv, probs=zp)))
    return marginal, slices


def mi_via_mmse_difference(joint: JointAtoms,
                           tail: TailPolicy | None = None) -> float:
    """I(X;Z) in nats from estimation errors of Z in Gaussian noise.

    Observing Y = sqrt(snr) Z + N, the gap between the second moments of
    E[Z|Y,X] and E[Z|Y] equals mmse(Z|Y) - E_X mmse(Z|Y,X); integrating half
    of that gap over all snr gives the mutual information.  The difference
    form avoids cancelling two near-equal second moments at low snr.
    """
    tail = tail or TailPolicy()
    marginal, slices = _conditional_slices(joint)

    def gap(s):
        unconditional = mmse(ScalarChannel(marginal, s))
        conditional = sum(
            w * mmse(ScalarChannel(law, s)) if law.values.size > 1 else 0.0
            for w, law in slices)
        return max(unconditional - conditional, 0.0)

    var_cond = sum(w * variance(law) for w, law in slices)
    return _half_integral(gap, variance(marginal) - var_cond, tail,
                          "mutual information")
