"""Pass/fail checks of one benchmark operation against an untimed reference.

Every check returns ``(ok, reason)``.  The statistical checks are sized so
that a correct program fails one of them by chance at most ``P_FALSE`` of
the time: the acceptance tolerance of the matching acceptance criterion
covers the systematic (time-step, quadrature) error, and a normal quantile,
a Bonferroni-corrected quantile or a Kolmogorov critical value at
``P_FALSE`` covers the sampling error on top.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

from levygreen import stable

P_FALSE = 1e-4          # chance failure rate of one statistical check
TABLE_REL_TOL = 1e-6    # stable and mixture kernel tables against closed forms
RESIDUAL_TOL = 1e-8     # Nystrom residual, as solve_perturbed's own target
EXIT_MASS_TOL = 1e-2    # perturbed exit mass against 1
MEAN_EXIT_REL_TOL = 1e-2  # acceptance criterion 8
KS_TOL = 1e-2           # acceptance criterion 7, driftless exit law
GT_REL_TOL = 1e-10      # Gt written by the CLI against the same solve through the API


def z_two_sided(n_tests: int = 1) -> float:
    """Two-sided normal quantile for n_tests simultaneous tests at total level P_FALSE."""
    return float(-ndtri(P_FALSE / (2.0 * n_tests)))


def ks_critical(n: int) -> float:
    """Asymptotic Kolmogorov critical value sqrt(-ln(P_FALSE/2)/2)/sqrt(n)."""
    return math.sqrt(-0.5 * math.log(P_FALSE / 2.0)) / math.sqrt(n)


def ks_distance(samples, cdf) -> float:
    """sup |F_n - F| of the empirical CDF of samples against a reference CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    F = np.asarray(cdf(xs), dtype=float)
    n = len(xs)
    above = np.arange(1, n + 1) / n - F      # F_n just after each sample
    below = F - np.arange(n) / n             # F_n just before it
    return float(max(np.max(above), np.max(below)))


def _verdict(ok, reason: str) -> tuple[bool, str]:
    return bool(ok), reason


def mean_exit_time(est: float, se: float, ref: float) -> tuple[bool, str]:
    """|estimate - reference| <= MEAN_EXIT_REL_TOL * reference + z(P_FALSE) * se."""
    allowed = MEAN_EXIT_REL_TOL * abs(ref) + z_two_sided() * se
    err = abs(est - ref)
    return _verdict(np.isfinite(est) and err <= allowed,
                    f"mean exit time {est:.6g} vs {ref:.6g}: |diff| {err:.3g} "
                    f"{'<=' if err <= allowed else '>'} {allowed:.3g}")


def occupation_bins(val, se, ref) -> tuple[bool, str]:
    """Largest bin z-score within the Bonferroni bound over the visited bins."""
    val, se, ref = (np.asarray(a, dtype=float) for a in (val, se, ref))
    seen = se > 0
    if not np.any(seen):
        return False, "no occupied bin"
    z = np.abs(val[seen] - ref[seen]) / se[seen]
    bound = z_two_sided(n_tests=int(np.count_nonzero(seen)))
    worst = float(np.max(z))
    return _verdict(np.all(np.isfinite(z)) and worst <= bound,
                    f"worst bin z {worst:.2f} {'<=' if worst <= bound else '>'} "
                    f"{bound:.2f} over {int(np.count_nonzero(seen))} bins")


def exit_law_ks(ks: float, n: int) -> tuple[bool, str]:
    """KS distance within the acceptance tolerance plus the critical value."""
    allowed = KS_TOL + ks_critical(n)
    return _verdict(np.isfinite(ks) and ks <= allowed,
                    f"exit-law KS {ks:.4f} {'<=' if ks <= allowed else '>'} {allowed:.4f} "
                    f"at n={n}")


def _worst_rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got / want - 1.0)))


def stable_table(alpha: float, r, h, K, dK) -> tuple[bool, str]:
    """h, K and dK of a stable table against their closed-form power laws."""
    r = np.asarray(r, dtype=float)
    k1 = stable.kernel_at_one(alpha)
    errs = {
        "h": _worst_rel(h, stable.h_constant(alpha) * r ** -alpha),
        "K": _worst_rel(K, k1 * r ** (alpha - 1.0)),
        "dK": _worst_rel(dK, (alpha - 1.0) * k1 * r ** (alpha - 2.0)),
    }
    bad = {k: v for k, v in errs.items() if not v <= TABLE_REL_TOL}
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    return _verdict(not bad, f"stable({alpha:.4f}) table rel err {detail} "
                             f"({'<=' if not bad else 'exceeds'} {TABLE_REL_TOL:.0e})")


def mixture_h(alphas, weights, r, h) -> tuple[bool, str]:
    """Mixture h against the weighted sum of the stable h laws of its components."""
    r = np.asarray(r, dtype=float)
    want = sum(w * stable.h_constant(a) * r ** -a for a, w in zip(alphas, weights))
    err = _worst_rel(h, want)
    return _verdict(err <= TABLE_REL_TOL, f"mixture h rel err {err:.1e} "
                                          f"{'<=' if err <= TABLE_REL_TOL else '>'} "
                                          f"{TABLE_REL_TOL:.0e}")


def kato_verdict(passed: bool, admissible: bool) -> tuple[bool, str]:
    """The certificate must accept exactly the drifts that power counting admits."""
    return _verdict(passed == admissible,
                    f"certificate {'PASS' if passed else 'FAIL'}, power counting says "
                    f"{'admissible' if admissible else 'not admissible'}")


def perturbed_matrix(x, y, gt, nodes, matrix) -> tuple[bool, str]:
    """Gt rows read from the op's ratios.csv against the reference solve on the same nodes."""
    nodes, matrix = np.asarray(nodes, dtype=float), np.asarray(matrix, dtype=float)
    n = len(nodes)
    if np.shape(gt) != (n * n,):
        return False, f"ratios.csv has {np.size(gt)} Gt entries, expected {n}^2"
    if not (np.array_equal(x, np.repeat(nodes, n)) and np.array_equal(y, np.tile(nodes, n))):
        return False, "ratios.csv nodes differ from the reference grid"
    err = float(np.max(np.abs(np.asarray(gt) - matrix.ravel())) / np.max(np.abs(matrix)))
    return _verdict(err <= GT_REL_TOL, f"Gt max rel diff {err:.1e} "
                                       f"{'<=' if err <= GT_REL_TOL else '>'} {GT_REL_TOL:.0e}")


def nystrom_report(report: dict) -> tuple[bool, str]:
    """Residual small, ratios Gt/G finite and positive, constant finite."""
    res, inf, sup, c = (float(report[k]) for k in ("residual", "inf", "sup", "constant"))
    ok = res <= RESIDUAL_TOL and inf > 0 and np.isfinite(sup) and np.isfinite(c)
    return _verdict(ok, f"residual {res:.1e} (<= {RESIDUAL_TOL:.0e}), ratios in "
                        f"[{inf:.4g}, {sup:.4g}], C={c:.4g}")


def exit_mass(mass: float) -> tuple[bool, str]:
    err = abs(mass - 1.0)
    return _verdict(np.isfinite(mass) and err <= EXIT_MASS_TOL,
                    f"perturbed exit mass {mass:.5f}, |mass-1| {err:.1e} "
                    f"{'<=' if err <= EXIT_MASS_TOL else '>'} {EXIT_MASS_TOL:.0e}")


def all_of(*results: tuple[bool, str]) -> tuple[bool, str]:
    """Combine checks: pass only if all pass; the reason lists the failing ones first."""
    failed = [r for ok, r in results if not ok]
    passed = [r for ok, r in results if ok]
    return not failed, "; ".join(failed or passed)
