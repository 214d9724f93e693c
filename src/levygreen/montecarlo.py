"""Path simulation of the drift-perturbed process and occupation estimators.

``simulate_exit`` has two engines and picks one by a fixed rule, with no
option to choose:

* **Walk on spheres** when the drift is identically zero and the model is
  stable (``models.stable_index`` succeeds).  Each path jumps from ball to
  ball by the exact centred exit law of the stable process until it lands
  outside the domain, so exit positions are exact, and each ball adds its
  closed-form expected exit time and bin occupation.
  The recorded ``tau`` of a path is therefore its conditional mean exit
  time given the walk: the mean over paths is unbiased, but the spread of
  ``tau`` is not the spread of exit times.  ``dt`` is unused on this
  route, and nothing is censored.
* **Euler stepping** for every other input: a drift substep, then an exact
  increment of the noise over the step (the Chambers-Mallows-Stuck transform
  of a uniform and an exponential variate; a ``stable-mixture`` with symbol
  sum_i w_i |xi|^alpha_i adds one independent draw over w_i dt per
  component; any other family has no exact increment and is refused).
  With zero drift the discrete chain is the true process observed on a time
  grid; otherwise the only Euler error is first-order splitting of the
  drift substep and post-step exit detection.  Exit happens by a
  macroscopic jump, which makes post-step detection reliable; the residual
  time-discretization bias is quantified by step-halving rather than
  modeled.  Each path carries its cell: its occupation bin, or its
  component when occupation is not tracked.  Every cell is an exact float
  interval [lo, hi] of the bin lookup, so a step that ends inside its cell
  costs two comparisons, and only the paths that leave it look up the
  domain and their new cell.  A path's occupation of its current bin lives
  in a per-path register that takes both half-steps' times and goes back
  to the bin when the path leaves it, exits or is censored; every bin gets
  the same additions in the same order as a per-step scatter would.

The stable increment over dt is dt^(1/alpha) times the Chambers-Mallows-Stuck
variate (Chambers, Mallows and Stuck, JASA 71 (1976) 340-344) of u uniform on
(-pi/2, pi/2) and w standard exponential,

    sin(alpha u) / cos(u)^(1/alpha) * (cos((1 - alpha) u) / w)^((1 - alpha) / alpha)
      = 2 t / (1 + t^2) * exp(((1 - alpha)(log cos((1 - alpha) u) - log w) - log cos u) / alpha),

with t = tan(alpha u / 2) and log cos v = -log1p(tan(v)^2) / 2 for |v| < pi/2.
The right-hand side is what ``_cms`` evaluates: numpy runs float64 sin, cos
and pow element by element in libm, but tan, log1p, log and exp in vector
loops several times faster, and the draw is the largest single cost of an
Euler step.  Both forms agree to about 1e-13 relative, near u = +-pi/2 and
for w down to 1e-300 too.

Drifted Euler paths of a ``stable`` model also carry a Dynkin score.  Let v
be the sum over the components I_j of their closed-form mean exit times
v_j, each zero off its interval.  Dynkin's formula for the drifted
generator L + b d applied to v, which vanishes at every exit position,
gives the identity

    E^x tau = v(x) + E^x int_0^tau (c + b v')(X_s) ds,   c = L v + 1.

On component I_k, L v_k = -1, so c = sum_{j != k} L v_j: the cross rate
int_{I_j} v_j(y) nu(x - y) dy of jumps into the other components
(``stable.mean_exit_time_generator``), smooth on the closed component,
tabulated once per call and 0 on one interval.  Each path sums
(c + b v')(X_k) h_k beside its elapsed time, with the same steps; the
score draws no random number, so the paths, exit times and occupations
are those of an unscored run bit for bit.  ``ExitSample.identity`` holds
v(x0) + score per path (less v at the last position for a path stopped at
the cap, whose raw time is tau ^ cap), and ``dynkin_mean_exit_estimate``
uses it as a control variate for the raw exit times.  Where the drift is
identically zero or the model is a mixture there is no identity, and the
estimate is the raw one.  ``mc_exit_law`` reads no identity, so its paths
carry no score.

Estimators: mean exit time, occupation-density histograms (the Monte Carlo
Green function), and the exit law; ``ks_distance`` measures exit positions
against a reference CDF such as a quadrature exit density's.  Both engines
run chunks of ``_CHUNK`` paths with split seeds, so runs are reproducible
bit for bit for a fixed seed.
This module imports no scipy module, and neither does anything it imports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Integral, Real
from typing import Callable

import numpy as np

from . import stable
from .geometry import C11Set
from .models import LevyModel, stable_index

__all__ = [
    "PathConfig",
    "McEstimate",
    "ExitSample",
    "BinGrid",
    "sample_stable_increment",
    "simulate_exit",
    "mc_mean_exit_time",
    "mean_exit_estimate",
    "dynkin_mean_exit_estimate",
    "mc_green",
    "mc_exit_law",
    "exit_histogram",
    "ks_distance",
]

_REF_FRAC = 0.25        # boundary distance of full-size Euler steps, in units of r0
_FLOOR_FRAC = 1e-6      # smallest boundary distance the Euler steps resolve, in r0
_CAP_FACTOR = 200.0     # Euler paths stop at 200 x min_i (diam / 2)^alpha_i / w_i
_CHUNK = 20_000         # paths per chunk, each with its own split seed
_RATE_STEPS = 1024      # cross-rate table steps per smallest gap of the domain
_RATE_MAX = 1 << 18     # and at most this many steps over its span
_SCORE_BLOCK = 8192     # paths per block of the score's passes


@dataclass(frozen=True)
class PathConfig:
    """Simulation controls, the keys of a config's ``mc`` section; bins tile the domain.

    Steps shrink near the boundary: the step at boundary distance d is
    dt * min(1, (d / (r0 / 4))^alpha), with d floored at 1e-6 r0 and alpha
    the model's largest stability index, which governs small scales.  This
    keeps the within-step displacement a fixed fraction of the boundary
    distance, which is what makes exit positions and exit times accurate:
    the exit law has a fat boundary layer that fixed steps smear at an
    unacceptable rate.  Near-boundary occupancy is thin, so the extra cost
    is a small constant factor.  dt acts on the Euler engine only.  As a
    safety net, an Euler path still inside after 200 min_i (diam / 2)^alpha_i
    / w_i, 200 times the slowest component's exit-time scale, is stopped and
    counted as censored.
    """

    dt: float
    n_paths: int
    seed: int = 0
    bin_width: float = 0.05

    def __post_init__(self):
        for name in ("dt", "bin_width"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Real) or not v > 0:
                raise ValueError(f"{name} must be a number > 0, got {v!r}")
        for name, lo in (("n_paths", 2), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral) or v < lo:
                raise ValueError(f"{name} must be an integer >= {lo}, got {v!r}")


@dataclass(frozen=True)
class McEstimate:
    value: float
    se: float


@dataclass(frozen=True)
class BinGrid:
    """Per-component uniform bins covering the domain exactly."""

    domain: C11Set
    edges: tuple            # per component: array of edges
    offsets: tuple          # starting global bin index per component
    n_bins: int

    @property
    def centers(self) -> np.ndarray:
        return np.concatenate([0.5 * (e[1:] + e[:-1]) for e in self.edges])

    @property
    def widths(self) -> np.ndarray:
        return np.concatenate([np.diff(e) for e in self.edges])

    @cached_property
    def _lookup(self) -> tuple:
        ends = np.array(self.domain.intervals)
        return (ends[:, 0], ends[:, 1] - ends[:, 0],
                np.array([len(e) - 1 for e in self.edges]), np.array(self.offsets))

    def _index(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Global bin index of in-domain positions x that lie in components c."""
        a, length, k, off = self._lookup
        k = k[c]
        return off[c] + np.minimum((((x - a[c]) / length[c]) * k).astype(np.int64), k - 1)


def _component(lo: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Component of each in-domain position: the number of left ends lo[1:] below it.

    lo holds the sorted left ends of the domain's intervals; the result is
    undefined outside the domain.
    """
    c = np.zeros(np.shape(x), dtype=np.intp)
    for a in lo[1:]:
        c += x > a
    return c


def _ordered(v: np.ndarray) -> np.ndarray:
    """float64 <-> int64 keys in the order of the floats (the map is its own inverse)."""
    v = np.ascontiguousarray(v).view(np.int64)
    return v ^ ((v >> 63) & np.int64(0x7FFF_FFFF_FFFF_FFFF))


def _cell_bounds(bins: BinGrid, by_bin: bool) -> tuple:
    """Exact float bounds [lo, hi] of every cell, in order, and the component of each.

    A cell is a bin of ``bins`` when ``by_bin``, otherwise a component of the
    domain; a component (a, b) runs from nextafter(a, +inf) to
    nextafter(b, -inf).  ``_index`` is monotone in x (a subtraction, a
    division and a product by positive constants, then a truncation), so a
    bin is the float interval from the smallest position ``_index`` maps to
    it to the one below the next bin's smallest.  Those smallest positions
    are bisected over the ordered floats, all bins at once.
    """
    ends = np.array(bins.domain.intervals)
    first = np.nextafter(ends[:, 0], np.inf)
    last = np.nextafter(ends[:, 1], -np.inf)
    if not by_bin:
        return first, last, np.arange(len(ends))
    comp = np.repeat(np.arange(len(ends)), [len(e) - 1 for e in bins.edges])
    cell = np.arange(bins.n_bins)
    # _index(comp, x) >= cell holds at hi; lo is the key below the component
    lo, hi = _ordered(first[comp]) - 1, _ordered(last[comp])
    while np.any(hi - 1 > lo):
        mid = (lo >> 1) + (hi >> 1) + ((lo | hi) & 1)  # rounded up, so never lo; no overflow
        up = bins._index(comp, _ordered(mid).view(np.float64)) >= cell
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    start = _ordered(hi).view(np.float64)
    same = np.append(comp[1:] == comp[:-1], False)      # the next bin is in the component
    end = np.where(same, np.nextafter(np.append(start[1:], 0.0), -np.inf), last[comp])
    return start, end, comp


def make_bins(D: C11Set, width: float) -> BinGrid:
    edges, offsets, off = [], [], 0
    for a, b in D.intervals:
        k = max(1, int(round((b - a) / width)))
        edges.append(np.linspace(a, b, k + 1))
        offsets.append(off)
        off += k
    return BinGrid(D, tuple(edges), tuple(offsets), off)


def sample_stable_increment(alpha: float, dt, rng: np.random.Generator,
                            size: int) -> np.ndarray:
    """Exact symmetric stable increment over dt (Chambers-Mallows-Stuck).

    alpha lies in (0, 2), the range of the mixture indices; at alpha = 1 the
    draw is the Cauchy tan u.  dt may be a scalar or a per-path vector of
    step sizes.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"stability index must lie in (0, 2), got {alpha}")
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    w = rng.standard_exponential(size)
    return np.asarray(dt) ** (1.0 / alpha) * _cms(alpha, u, w)


def _cms(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit-scale stable variates of u in (-pi/2, pi/2) and w > 0.

    The Chambers-Mallows-Stuck transform in the tan/log1p/exp form of the
    module docstring, with in-place ufuncs to keep the temporaries few.
    """
    e = np.tan((1.0 - alpha) * u)
    e *= e
    np.log1p(e, out=e)
    e *= -0.5                       # log cos((1 - alpha) u)
    e -= np.log(w)
    e *= 1.0 - alpha
    v = np.tan(u)
    v *= v
    np.log1p(v, out=v)
    v *= 0.5                        # -log cos u
    e += v
    e /= alpha
    np.exp(e, out=e)
    t = np.tan(0.5 * alpha * u)
    np.multiply(t, t, out=v)
    v += 1.0
    t /= v
    t *= 2.0                        # sin(alpha u)
    t *= e
    return t


def _components(model: LevyModel) -> tuple:
    """(alpha_i, w_i) of the symbol sum_i w_i |xi|^alpha_i of a stable or mixture model."""
    if model.family == "stable":
        return ((model.alpha, 1.0),)
    if model.family == "stable-mixture":
        p = dict(model.params)
        return tuple(zip(p["alphas"], p["weights"]))
    raise ValueError(f"exact path increments exist only for the stable and "
                     f"stable-mixture families, not for {model.family!r}")


def _jump_sampler(model: LevyModel):
    """Exact increment sampler of the driftless noise, dt vectorized, and the largest index.

    One stable draw over w_i dt per component; a stable model's unit weight
    leaves dt exact, so its draw is ``sample_stable_increment`` bit for bit.
    """
    pairs = _components(model)
    (a0, w0), *rest = pairs

    def draw(rng: np.random.Generator, dt, size: int) -> np.ndarray:
        out = sample_stable_increment(a0, w0 * dt, rng, size)
        for a, w in rest:
            out += sample_stable_increment(a, w * dt, rng, size)
        return out

    return draw, max(a for a, _ in pairs)


@dataclass(frozen=True)
class ExitSample:
    tau: np.ndarray                 # per path: exit time (Euler), E[tau | walk] (walk on spheres)
    exit_pos: np.ndarray            # per path: first position outside D; a censored
                                    # path's last position, inside D
    occupation: np.ndarray          # per-bin total time
    occupation_m2: np.ndarray       # per-bin sum of squared deviations from the mean path time
    bins: BinGrid
    n_paths: int
    censored: int
    engine: str                     # "euler" or "walk-on-spheres"
    identity: np.ndarray | None = None  # per path: v(x0) + its Dynkin score (drifted
                                        # Euler paths of a stable model), else None


def simulate_exit(model: LevyModel, b: Callable, D: C11Set, x0: float,
                  config: PathConfig, track_occupation: bool = True, *,
                  _identity: bool = True) -> ExitSample:
    """Simulate exit paths from x0, by walk on spheres where it is exact.

    The driftless stable process takes the walk on spheres; every other
    input (a drift, a stable mixture) takes the boundary-adaptive Euler
    loop.  No setting chooses the engine.  Any family but ``stable`` and
    ``stable-mixture`` raises ``ValueError``.  ``_identity=False`` (for
    callers that never read ``ExitSample.identity``) skips the Dynkin score;
    the paths are the same bit for bit.
    """
    if not D.contains(x0):
        raise ValueError("starting point must lie inside the domain")
    if _is_zero_drift(b):
        try:
            alpha = stable_index(model)
        except ValueError:
            pass        # no closed-form ball laws: Euler below
        else:
            return _walk_on_spheres(alpha, D, x0, config, track_occupation)
    return _euler_exit(model, b, D, x0, config, track_occupation, identity=_identity)


def _is_zero_drift(b: Callable) -> bool:
    return getattr(b, "family", "") == "constant" and \
        not np.any(np.asarray(b(np.zeros(1)), dtype=float))


def _run_chunks(config: PathConfig, bins: BinGrid, track_occupation: bool, engine: str,
                walk_chunk) -> ExitSample:
    """Chunked driver shared by both engines: split seeds, per-path arrays, bin sums.

    ``walk_chunk(m, rng, occ_chunk)`` simulates m paths, adds their per-bin
    times to occ_chunk (None when occupation is not tracked) and returns
    (tau, exit_pos, censored) of the chunk.  The chunks make one
    ``ExitSample`` of the named engine.  Each chunk's sum of squared
    deviations from its own mean joins the running one by the pairwise
    update of Chan, Golub and LeVeque (*Amer. Statist.* 37 (1983) 242-247),
    so the variance never subtracts two nearly equal moments.  The update
    works on times less the first chunk's mean, so the difference of two
    chunk means keeps its digits however large the times are.
    """
    n_total = config.n_paths
    tau = np.empty(n_total)
    exit_pos = np.empty(n_total)
    occ = np.zeros(bins.n_bins)
    occ_m2 = np.zeros(bins.n_bins)
    dev_sum = np.zeros(bins.n_bins)     # sum of the times less the shift
    shift = None
    censored = done = 0
    chunks = np.array_split(np.arange(n_total), max(1, n_total // _CHUNK))
    seeds = np.random.SeedSequence(config.seed).spawn(len(chunks))
    for chunk_idx, seed in zip(chunks, seeds):
        m = len(chunk_idx)
        occ_chunk = np.zeros((m, bins.n_bins)) if track_occupation else None
        ctau, cpos, ccens = walk_chunk(m, np.random.default_rng(seed), occ_chunk)
        tau[chunk_idx] = ctau
        exit_pos[chunk_idx] = cpos
        censored += ccens
        if track_occupation:
            if shift is None:
                shift = occ_chunk.mean(axis=0)
            dev = occ_chunk - shift
            chunk_dev = dev.sum(axis=0)
            delta = chunk_dev / m - (dev_sum / done if done else 0.0)
            dev -= chunk_dev / m        # in place: the chunk needs one temporary
            occ_m2 += (np.square(dev, out=dev).sum(axis=0)
                       + delta ** 2 * (done * m / (done + m)))
            dev_sum += chunk_dev
            occ += occ_chunk.sum(axis=0)
        done += m
    return ExitSample(tau, exit_pos, occ, occ_m2, bins, n_total, censored, engine)


def _euler_exit(model: LevyModel, b: Callable, D: C11Set, x0: float,
                config: PathConfig, track_occupation: bool = True,
                identity: bool = True) -> ExitSample:
    """Drift substep then exact jump, with boundary-adaptive step sizes.

    Exit is declared at the first post-step position outside the domain;
    because steps shrink with the boundary distance, the recorded position
    and time carry only a relative-in-scale discretization error.  Drifted
    paths of a ``stable`` model carry the Dynkin score unless ``identity``
    is False.
    """
    bins = make_bins(D, config.bin_width)
    draw, alpha = _jump_sampler(model)
    # the slowest component's exit-time scale; at least _CAP_FACTOR / psi(2 / diam)
    cap_time = _CAP_FACTOR * min((D.diam / 2.0) ** a / w for a, w in _components(model))
    d_ref = _REF_FRAC * D.r0
    d_floor = _FLOOR_FRAC * D.r0
    n_bins = bins.n_bins

    left, right = np.array(D.intervals).T
    cell_lo, cell_hi, cell_comp = _cell_bounds(bins, track_occupation)
    cell_left, cell_right = left[cell_comp], right[cell_comp]
    scored = identity and model.family == "stable" and not _is_zero_drift(b)
    if scored:
        kappa = stable.exit_time_constant(alpha)
        add_score, scale = _dynkin_scorer(alpha, D)
        v0 = sum(stable.mean_exit_time(alpha, iv, x0) for iv in D.intervals)
        identities = []         # per chunk: each path's v(x0) + score

    def walk_chunk(m, rng, occ_chunk):
        censored = 0
        x = np.full(m, float(x0))
        alive = np.arange(m)
        t_acc = np.zeros(m)                 # elapsed time of each alive path
        ctau = np.empty(m)
        cpos = np.empty(m)
        if scored:
            score = np.zeros(m)     # sum of (c + b v')(x) dt / scale, the step rule of t_acc
            cident = np.empty(m)
        # the cell of each alive path: its bin, or its component when occupation
        # is not tracked; the cells' exact bounds make the lookup a search
        cell = np.full(m, np.searchsorted(cell_lo, x0, side="right") - 1)
        if occ_chunk is not None:
            occ_flat = occ_chunk.reshape(-1)    # view: path p, bin k at p*n_bins + k
            acc = np.zeros(m)       # occupation of each path's current bin, not yet stored
        while len(alive):
            dl = x - cell_left[cell]
            dr = cell_right[cell] - x
            dtv = config.dt * np.minimum(
                np.maximum(np.minimum(dl, dr), d_floor) / d_ref, 1.0) ** alpha
            if occ_chunk is not None:
                # trapezoidal attribution in time: half the step at its start,
                # half at its end if the path is still inside
                half = 0.5 * dtv
                acc += half
            bx = np.asarray(b(x), dtype=float)
            if not np.all(np.isfinite(bx)):
                raise FloatingPointError("drift evaluated to a non-finite value on a path")
            if scored:
                add_score(score, x, dl, dr, bx, dtv)
            x_new = x + bx * dtv + draw(rng, dtv, len(alive))
            t_acc += dtv
            stay = cell_lo[cell] <= x_new
            stay &= x_new <= cell_hi[cell]
            moved = np.flatnonzero(~stay)       # left the cell: the domain decides
            x_moved = x_new[moved]
            inside = D.contains(x_moved)
            out = moved[~inside]
            if len(moved):
                into = moved[inside]
                if occ_chunk is not None:
                    # store the registers of the bins left, load those of the bins entered
                    occ_flat[alive[moved] * n_bins + cell[moved]] = acc[moved]
                cell[into] = np.searchsorted(cell_lo, x_moved[inside], side="right") - 1
                if occ_chunk is not None:
                    acc[into] = occ_flat[alive[into] * n_bins + cell[into]]
            if occ_chunk is not None:
                acc += half         # exited paths' registers are stored already
            capped = t_acc >= cap_time
            capped[out] = False
            cens = np.flatnonzero(capped)       # inside at the cap: censored
            if len(cens):
                if occ_chunk is not None:
                    occ_flat[alive[cens] * n_bins + cell[cens]] = acc[cens]
                censored += len(cens)
                out = np.concatenate((out, cens))     # every path that finishes
            if len(out):
                fin = alive[out]
                ctau[fin] = t_acc[out]
                cpos[fin] = x_new[out]
                keep = np.ones(len(alive), dtype=bool)
                keep[out] = False
                if scored:
                    cident[fin] = v0 + scale * score[out]
                    if len(cens):   # stopped inside: the identity of tau ^ cap less v(X)
                        c = cell[cens]
                        cident[alive[cens]] -= kappa * (
                            (x_new[cens] - cell_left[c]) * (cell_right[c] - x_new[cens])
                        ) ** (0.5 * alpha)
                    score = score[keep]
                alive, x_new, t_acc, cell = alive[keep], x_new[keep], t_acc[keep], cell[keep]
                if occ_chunk is not None:
                    acc = acc[keep]
            x = x_new
        if scored:
            identities.append(cident)
        return ctau, cpos, censored

    sample = _run_chunks(config, bins, track_occupation, "euler", walk_chunk)
    if scored:
        return replace(sample, identity=np.concatenate(identities))
    return sample


def _cross_rate(alpha: float, D: C11Set) -> tuple[np.ndarray, np.ndarray]:
    """Uniform nodes over the span of a union of intervals, and c = L v + 1 at each.

    v is the sum of the components' mean exit times, so on a component c is
    the sum of ``stable.mean_exit_time_generator`` over the others.  c is
    smooth on the closed component and varies on the scale of the distance
    to the others, so the step is 1/``_RATE_STEPS`` of the smallest gap (at
    most ``_RATE_MAX`` steps).  Each node takes the rate of its nearest
    component, so the nodes just beyond a component's ends continue its c
    smoothly.
    """
    left, right = np.array(D.intervals).T
    span = right[-1] - left[0]
    steps = int(min(_RATE_MAX, np.ceil(span * _RATE_STEPS / np.min(left[1:] - right[:-1]))))
    nodes = np.linspace(left[0], right[-1], steps + 1)
    nearest = np.searchsorted(0.5 * (right[:-1] + left[1:]), nodes)
    rate = np.zeros(steps + 1)
    for j, iv in enumerate(D.intervals):
        other = nearest != j
        rate[other] += stable.mean_exit_time_generator(alpha, iv, nodes[other])
    return nodes, rate


def _dynkin_scorer(alpha: float, D: C11Set) -> tuple[Callable, float]:
    """Adds (c + b v')(x) dt to the paths' scores, and the scale the scores are kept in.

    ``add(score, x, dl, dr, bx, dtv)`` takes in-domain positions x, their
    distances dl = x - a and dr = b - x to their component's ends, b(x) and
    the steps.  On component (a, b) with midpoint m,
    v' = -alpha kappa (x - m) ((x - a)(b - x))^(alpha/2 - 1), kappa the
    ``exit_time_constant``; the scores are kept in units of the returned
    scale, so the constant costs no pass.  c comes from the ``_cross_rate``
    table, interpolated linearly as intercept + slope u in the table
    coordinate u: the relative error is below 1e-6 at the full step (gaps
    down to 1/256 of the span) and grows like the squared step below.  On
    one interval c = 0.  The passes run on blocks of at most
    ``_SCORE_BLOCK`` paths: on 20 000 paths at once they took about twice
    as long per path, measured on a 2-core Xeon with 2 MB of L2 per core.
    """
    scale = -0.5 * alpha * stable.exit_time_constant(alpha)     # (x - a) - (b - x) = 2 (x - m)
    power = 0.5 * alpha - 1.0
    multi = len(D.intervals) > 1
    if multi:
        nodes, rate = _cross_rate(alpha, D)
        rate /= scale
        slopes = np.append(np.diff(rate), 0.0)      # u rounding up to the last node stays in range
        intercepts = rate - slopes * np.arange(len(rate))
        origin, per_step = nodes[0], (len(nodes) - 1) / (nodes[-1] - nodes[0])

    def add(score, x, dl, dr, bx, dtv):
        if len(x) > _SCORE_BLOCK:
            for i in range(0, len(x), _SCORE_BLOCK):
                blk = slice(i, i + _SCORE_BLOCK)
                add(score[blk], x[blk], dl[blk], dr[blk], bx[blk], dtv[blk])
            return
        out = dl * dr
        np.log(out, out=out)        # exp(power log y): vector loops, pow is not
        out *= power
        np.exp(out, out=out)
        out *= dl - dr
        out *= bx
        if multi:
            u = x - origin
            u *= per_step
            k = u.astype(np.intp)
            c = slopes[k]
            c *= u
            c += intercepts[k]
            out += c
        out *= dtv
        score += out

    return add, scale


_MAX_SWEEPS = 10_000     # a walk still inside after this many balls is an error


def _walk_on_spheres(alpha: float, D: C11Set, x0: float, config: PathConfig,
                     track_occupation: bool = True) -> ExitSample:
    """Exact walk on spheres for the driftless stable process.

    Kyprianou, Osojnik and Shardlow (IMA J. Numer. Anal. 2018): from x, take
    the largest interval centred at x inside D, of radius r = delta(D, x),
    and jump to its exit point x +- r / sqrt(Q), Q ~ Beta(alpha/2, 1 - alpha/2)
    (the centred exit law ``stable.poisson_interval``).  A walk ends at its
    first landing point outside D, which is an exact exit position.  Each
    ball adds its expected exit time c r^alpha to tau and its expected bin
    occupations r^alpha [Phi((hi - x)/r) - Phi((lo - x)/r)] to the bins, Phi
    being ``stable.center_occupation``.  So tau holds per-path conditional
    means E[tau | walk]: their mean is unbiased, their spread is smaller
    than the spread of exit times.  There is no time step and no censoring.
    """
    bins = make_bins(D, config.bin_width)
    c = stable.exit_time_constant(alpha)
    a = 0.5 * alpha
    left, right = np.array(D.intervals).T

    def walk_chunk(m, rng, occ_chunk):
        x = np.full(m, float(x0))
        alive = np.arange(m)
        t_acc = np.zeros(m)
        cpos = np.empty(m)
        for _ in range(_MAX_SWEEPS):
            comp = _component(left, x)
            lo, hi = left[comp], right[comp]
            r = np.minimum(x - lo, hi - x)
            mass = r ** alpha
            t_acc[alive] += c * mass
            if occ_chunk is not None:
                _add_ball_occupation(occ_chunk, alive, alpha, bins, comp, x, r, mass)
            # overshoot r (1/sqrt(Q) - 1) beyond the ball, with Q = g / (g + h)
            # for g ~ Gamma(a), h ~ Gamma(1 - a): exact even where Q rounds to 1
            g = rng.standard_gamma(a, len(x))
            h = rng.standard_gamma(1.0 - a, len(x))
            over = r * h / (np.sqrt(g) * (np.sqrt(g + h) + np.sqrt(g)))
            up = rng.random(len(x)) < 0.5
            # the ball's edge is the domain's endpoint itself on the near side
            edge = np.where(up, np.where(hi - x <= x - lo, hi, x + r),
                            np.where(x - lo <= hi - x, lo, x - r))
            x_new = np.where(up, edge + over, edge - over)
            flat = x_new == edge        # an overshoot below half an ulp
            x_new[flat] = np.nextafter(edge[flat], np.where(up[flat], np.inf, -np.inf))
            out = ~D.contains(x_new)
            cpos[alive[out]] = x_new[out]
            alive = alive[~out]
            x = x_new[~out]
            if not len(alive):
                return t_acc, cpos, 0
        raise RuntimeError(f"{len(alive)} walks still inside the domain after "
                           f"{_MAX_SWEEPS} balls")

    return _run_chunks(config, bins, track_occupation, "walk-on-spheres", walk_chunk)


def _add_ball_occupation(occ_chunk, alive, alpha, bins, comp, x, r, mass) -> None:
    """Add each ball's expected time in every bin of its component, all edges at once.

    A ball never leaves its component, so the bins of the others get exactly 0.
    """
    for i, (e, off) in enumerate(zip(bins.edges, bins.offsets)):
        mine = comp == i
        phi = stable.center_occupation(alpha, (e - x[mine, None]) / r[mine, None])
        occ_chunk[alive[mine], off:off + len(e) - 1] += mass[mine, None] * np.diff(phi, axis=1)


def mc_mean_exit_time(model: LevyModel, b: Callable, D: C11Set, x0: float,
                      config: PathConfig) -> McEstimate:
    """The mean exit time by ``dynkin_mean_exit_estimate``."""
    return dynkin_mean_exit_estimate(
        simulate_exit(model, b, D, x0, config, track_occupation=False))[0]


def mean_exit_estimate(s: ExitSample) -> McEstimate:
    """Mean of the sample's exit times and its standard error; at least 2 paths."""
    if s.n_paths < 2:
        raise ValueError(f"a standard error needs at least 2 paths, got {s.n_paths}")
    return McEstimate(float(np.mean(s.tau)),
                      float(np.std(s.tau, ddof=1) / np.sqrt(s.n_paths)))


def dynkin_mean_exit_estimate(s: ExitSample) -> tuple[McEstimate, dict | None]:
    """The raw exit times with the Dynkin identity as a control variate.

    Each path's estimate is tau - lam (tau - identity); lam = Cov(tau,
    tau - identity) / Var(tau - identity) from the sample minimises its
    variance, so the combination is never worse than the raw mean,
    asymptotically.  Fitting lam takes a degree of freedom, so the
    combined variance is the residual sum of squares over n - 2.  Returns
    the estimate and {"lambda": lam, "variance_ratio": raw variance /
    combined variance}.  A sample without identities (walk on spheres,
    mixtures, zero drift), or of 2 paths, returns ``mean_exit_estimate``
    bit for bit and None.  At least 2 paths.
    """
    raw = mean_exit_estimate(s)
    n = s.n_paths
    if s.identity is None or n < 3:
        return raw, None
    diff = s.tau - s.identity
    diff_c = diff - np.mean(diff)
    var = float(diff_c @ diff_c)
    lam = float((s.tau - raw.value) @ diff_c) / var if var > 0.0 else 0.0
    z = s.tau - lam * diff
    z_c = z - np.mean(z)
    est = McEstimate(float(np.mean(z)), float(np.sqrt(z_c @ z_c / (n - 2) / n)))
    return est, {"lambda": lam, "variance_ratio": (raw.se / est.se) ** 2}


def mc_green(model: LevyModel, b: Callable, D: C11Set, x0: float,
             config: PathConfig) -> tuple[BinGrid, np.ndarray, np.ndarray, ExitSample]:
    """Per-bin occupation-density estimates of the (perturbed) Green function.

    Returns (bins, values, standard errors, raw sample); the value in a bin
    estimates the bin average of Gt(x0, .).
    """
    return _green_estimate(simulate_exit(model, b, D, x0, config, track_occupation=True))


def _green_estimate(s: ExitSample) -> tuple[BinGrid, np.ndarray, np.ndarray, ExitSample]:
    n, w = s.n_paths, s.bins.widths
    val = s.occupation / n / w
    se = np.sqrt(s.occupation_m2 / n / n) / w
    return s.bins, val, se, s


def ks_distance(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    F = np.asarray(cdf(xs), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    dn = np.max(F - np.arange(0, n) / n)
    return float(max(up, dn))


def mc_exit_law(model: LevyModel, b: Callable, D: C11Set, x0: float,
                config: PathConfig) -> dict:
    """Exit-position histogram, boundary hits and the sample (without identities).

    The KS distance to a reference law is ``ks_distance(law["sample"].exit_pos, cdf)``.
    """
    return _exit_law(simulate_exit(model, b, D, x0, config, track_occupation=False,
                                   _identity=False), D)


def exit_histogram(exit_pos: np.ndarray, D: C11Set) -> tuple[np.ndarray, np.ndarray]:
    """Counts and edges of exit positions: 80 bins over two diameters beyond D."""
    lo, hi = D.intervals[0][0], D.intervals[-1][1]
    return np.histogram(exit_pos, bins=80, range=(lo - 2.0 * D.diam, hi + 2.0 * D.diam))


def _exit_law(s: ExitSample, D: C11Set) -> dict:
    counts, edges = exit_histogram(s.exit_pos, D)
    boundary_hits = int(sum(np.count_nonzero(s.exit_pos == e)
                            for iv in D.intervals for e in iv))
    return {"edges": edges, "counts": counts, "sample": s, "boundary_hits": boundary_hits}
