"""Information measures recovered from MMSE integrals over all snr.

For a discrete input, the mutual information of the scalar Gaussian channel
climbs to H(X) as snr grows, so H(X) = (1/2) integral of mmse(snr) dsnr.
Comparing the MMSE of a law against the Gaussian of the same variance in the
same way yields its non-Gaussianness (the KL divergence to that Gaussian),
hence its differential entropy and the entropy-power index gamma = exp(-D).
Mutual information between two finite variables falls out as the integrated
gap between unconditional and conditional estimation errors.

Every quantity is half a sum of MMSE integrals, each run on the package's one
snr rule, ``quadrature.snr_integral``, and differences are taken after
integrating.  Where an integral ends is set by the law:

* atoms: at snr * d_min**2 / 8 = 25, d_min the smallest gap between atoms;
  the MMSE then falls like exp(-snr d_min**2 / 8) (Lozano, Tulino and Verdu,
  IEEE Trans. IT, 2006), so what is left beyond is below 1e-11;
* laws with a density: at snr 1e4, closed by f(S) S / (alpha - 1) for an
  integrand f that falls like snr**-alpha: alpha = 2 for Gaussian mixtures,
  whose Fisher information is finite, and 3/2 for a gridded density with a
  jump at an end.  A closure above REL_TOL whose integrand falls no faster
  than 1/snr from S/4 to S, f(S/4) <= 4 f(S), raises TailNotResolved: the
  integral diverges, as a gridded density's does once snr h**2 is large for
  its grid step h and its grid points resolve as atoms.

A discrete law has infinite non-Gaussianness, and +inf is returned unless a
``TailPolicy`` truncates it.  ``TailPolicy`` overrides the end of a
non-Gaussianness (and so of a differential entropy); entropy and mutual
information always end where their laws set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import laws
from .errors import TailNotResolved
from .laws import DiscreteAtoms, GriddedDensity, InputLaw, require_finite, variance
from .quadrature import REL_TOL, snr_integral
from .report import Report
from .scalar import ScalarChannel, _nonnegative, mmse

_ATOM_END = 25.0             # snr * d_min**2 / 8 where an atom law's integral ends
_DENSITY_SNR_MAX = 1e4       # where a density's integral ends and is closed


@dataclass(frozen=True)
class TailPolicy:
    """Override of where a non-Gaussianness integral ends.

    The integral stops at snr_max.  A law with a density is then closed by
    f(snr_max) snr_max / (alpha - 1), alpha the law's known decay rate, after
    the divergence check of the module docstring; an atom law's value is the
    truncated one at snr_max.  tail_estimator names that closure and accepts
    "gaussian_tail" only.
    """
    snr_max: float = _DENSITY_SNR_MAX
    tail_estimator: str = "gaussian_tail"

    def __post_init__(self):
        require_finite(snr_max=self.snr_max)
        if self.snr_max < 1:
            raise ValueError("snr_max must be >= 1")
        if self.tail_estimator != "gaussian_tail":
            raise ValueError(f"unknown tail estimator {self.tail_estimator}")


@dataclass(frozen=True)
class JointAtoms:
    """Finite joint law of (X, Z) with real Z, as matched atom arrays."""
    x: np.ndarray
    z: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        x, z, p = (np.asarray(a, dtype=float) for a in (self.x, self.z, self.probs))
        if not (x.shape == z.shape == p.shape) or x.ndim != 1:
            raise ValueError("x, z, probs must be matching 1-d arrays")
        require_finite(x=x, z=z)
        laws.require_probs(probs=p)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "probs", p)


def _mmse_integral(law: InputLaw, snr_max: float) -> float:
    """∫_0^snr_max mmse(law, g) dg on ``snr_integral``, run in u = sigma^2 g
    so that its equal panels, at most ``quadrature.T_PANEL`` = 4 wide, are
    placed in ln(1 + sigma^2 g); there the 43-point Kronrod-Patterson rule
    meets the stop at its first level on every integral of the benchmark."""
    v = variance(law)
    return snr_integral(lambda u: mmse(ScalarChannel(law, u / v)),
                        v * snr_max) / v


def _half_atom_integrals(terms, what: str) -> float:
    """Half of sum w * ∫ mmse(law) over the (w, law) atom laws of ``terms``.

    Each integral ends where snr * d_min**2 / 8 = _ATOM_END for its law; a
    law with one live atom has MMSE 0 and is left out.  A sum within one ulp
    of its terms' size keeps no digit and is 0; a sum below -REL_TOL raises
    NonConvergence, one within it counts as 0.
    """
    terms = [(w, law) for w, law in terms if np.count_nonzero(law.probs) > 1]
    ends = [8.0 * _ATOM_END
            / np.diff(np.sort(law.values[law.probs > 0])).min() ** 2
            for _, law in terms]
    parts = [0.5 * w * _mmse_integral(law, s) for (w, law), s in zip(terms, ends)]
    total = sum(parts)
    if abs(total) <= np.finfo(float).eps * sum(map(abs, parts)):
        total = 0.0
    return _nonnegative(total, what, max(ends, default=0.0))


def _check_degenerate(atoms: DiscreteAtoms) -> None:
    live = atoms.probs[atoms.probs > 0]
    if live.size > 1 and np.any(live < 1e-10):
        raise ValueError(
            "atom probabilities below 1e-10 are rejected: the relative error "
            "of the entropy integral grows as the smallest probability falls")


def entropy_via_mmse(atoms: DiscreteAtoms, g=None) -> float:
    """H(X) in nats as half the integral of mmse(g(X); snr) over all snr.

    g may be any injective map on the atom values (default identity); the
    limit does not depend on it because the integral only sees which atom
    was sent, not where it sits on the line.
    """
    values = atoms.values if g is None else np.asarray(
        [g(v) for v in atoms.values], dtype=float)
    if np.unique(values).size != values.size:
        raise ValueError("the atom values, after g, must be distinct")
    _check_degenerate(atoms)
    law = DiscreteAtoms(values=values, probs=atoms.probs)
    return _half_atom_integrals([(1.0, law)], "entropy")


def nongauss_integrand(law: InputLaw, snr: float) -> float:
    """sigma^2/(1 + snr sigma^2) - mmse(snr): the Gaussian MMSE excess."""
    m, v = mmse(ScalarChannel(law, snr)), variance(law)   # the channel checks snr
    return v / (1.0 + snr * v) - m


def nongaussianness(law: InputLaw, tail: TailPolicy | None = None) -> float:
    """KL divergence from the law to the Gaussian of equal mean and variance.

    D = (1/2) integral over snr of [sigma^2/(1 + snr sigma^2) - mmse(snr)],
    taken as (1/2)[ln(1 + sigma^2 S) - ∫_0^S mmse] up to the end S, plus the
    closure of the module docstring, after its divergence check, for laws
    with a density.  S is the law's end unless ``tail`` overrides it.  A
    discrete law has infinite divergence: +inf, or its truncated value at S
    where ``tail`` sets S.
    """
    atoms = isinstance(law, DiscreteAtoms)
    if tail is None and atoms:
        return np.inf
    snr_max = _DENSITY_SNR_MAX if tail is None else tail.snr_max
    d = np.log1p(variance(law) * snr_max) - _mmse_integral(law, snr_max)
    if atoms:
        return 0.5 * d
    jump = isinstance(law, GriddedDensity) and max(law.pdf[0], law.pdf[-1]) > 0
    alpha = 1.5 if jump else 2.0
    f_end = nongauss_integrand(law, snr_max)
    closure = f_end * snr_max / (alpha - 1.0)
    if (abs(closure) > REL_TOL
            and nongauss_integrand(law, snr_max / 4.0) <= 4.0 * f_end):
        raise TailNotResolved(
            f"the integrand falls no faster than 1/snr from snr {snr_max / 4:g}"
            f" to {snr_max:g}, so its tail integral diverges; refine the grid "
            "or lower snr_max")
    return 0.5 * (d + closure)


def differential_entropy_via_mmse(law: InputLaw,
                                  tail: TailPolicy | None = None) -> float:
    """h(X) = (1/2) log(2 pi e sigma^2) - nongaussianness, nats."""
    if isinstance(law, DiscreteAtoms):
        raise ValueError("differential entropy requires a law with a density")
    return (0.5 * np.log(2.0 * np.pi * np.e * variance(law))
            - nongaussianness(law, tail))


def gamma_index(law: InputLaw) -> float:
    """gamma = exp(-D): 1 for Gaussian laws, smaller the harder to estimate."""
    return float(np.exp(-nongaussianness(law)))


def gamma_epi_check(law_a: InputLaw, law_b: InputLaw) -> Report:
    """Entropy-power inequality in gamma form for independent summands.

    With alpha = var_A / (var_A + var_B), checks
    alpha*gamma_A^2 + (1-alpha)*gamma_B^2 <= gamma_{A+B}^2.
    """
    g_a = gamma_index(law_a)
    g_b = gamma_index(law_b)
    g_sum = gamma_index(laws.convolve(law_a, law_b))
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


def _signed_laws(joint: JointAtoms):
    """(1, law of Z), then (-P(X = x), law of Z given X = x) per x."""
    z_vals, z_probs = laws._merge_atoms(joint.z, joint.probs)
    terms = [(1.0, DiscreteAtoms(values=z_vals, probs=z_probs))]
    for xv in np.unique(joint.x):
        sel = joint.x == xv
        w = joint.probs[sel].sum()
        zv, zp = laws._merge_atoms(joint.z[sel], joint.probs[sel] / w)
        terms.append((-float(w), DiscreteAtoms(values=zv, probs=zp)))
    return terms


def mi_via_mmse_difference(joint: JointAtoms) -> float:
    """I(X;Z) in nats from estimation errors of Z in Gaussian noise.

    Observing Y = sqrt(snr) Z + N, the gap between the second moments of
    E[Z|Y,X] and E[Z|Y] equals mmse(Z|Y) - E_X mmse(Z|Y,X); half its
    integral over all snr is the mutual information.  Each MMSE is
    integrated on its own and the difference is taken after, so a tiny
    information is not asked to meet a relative stop on a tiny integrand.  A
    result below -REL_TOL raises NonConvergence; one within it counts as 0.
    """
    return _half_atom_integrals(_signed_laws(joint), "mutual information")
