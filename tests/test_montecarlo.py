import dataclasses

import numpy as np
import pytest
from scipy import integrate

from levygreen import green, models, montecarlo as mc, perturbation, stable
from levygreen.geometry import delta, interval_union
from levygreen.kato import constant_drift, power_drift, sin_drift

ALPHA = 1.5
ZERO = constant_drift(0.0)

# simulate_exit takes the walk on spheres for driftless stable inputs; the
# driftless tests run the Euler loop through its own helper, with the walk on
# spheres beside it
ENGINES = {"euler": mc._euler_exit, "walk-on-spheres": mc.simulate_exit}


def test_increment_symmetry_and_scale():
    rng = np.random.default_rng(0)
    z = mc.sample_stable_increment(ALPHA, 1.0, rng, 10 ** 6)
    med = np.median(z)
    assert abs(med) < 3.0 * 1.3 / np.sqrt(10 ** 6)   # median se of a unit-scale law


def test_increment_self_similarity():
    z2 = mc.sample_stable_increment(ALPHA, 2.0, np.random.default_rng(1), 10 ** 5)
    z1 = mc.sample_stable_increment(ALPHA, 1.0, np.random.default_rng(2), 10 ** 5)
    scaled = 2.0 ** (1.0 / ALPHA) * z1
    from scipy.stats import ks_2samp
    assert ks_2samp(z2, scaled).statistic < 0.01


def test_increment_tail_exponent():
    z = np.abs(mc.sample_stable_increment(ALPHA, 1.0, np.random.default_rng(3), 10 ** 7))
    ts = np.geomspace(10.0, 1000.0, 5)
    surv = np.array([(z > t).mean() for t in ts])
    slope = np.polyfit(np.log(ts), np.log(surv), 1)[0]
    assert slope == pytest.approx(-ALPHA, rel=0.05)


def _cms_textbook(alpha, u, w):
    """Chambers-Mallows-Stuck transform in the form of the 1976 paper: sin, cos and pow."""
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.05, 1.25, 1.5, 1.75, 1.95])
def test_cms_matches_textbook_formula(alpha):
    rng = np.random.default_rng(6)
    u, w = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 10 ** 5), rng.standard_exponential(10 ** 5)
    # u within 1e-15 of +-pi/2 and u = 0, against w from 1e-300 to 50
    edge = 0.5 * np.pi - np.append(np.spacing(0.5 * np.pi) * np.arange(5), 1e-15)
    ue, we = np.meshgrid(np.concatenate([edge, -edge, u[:20], [0.0]]),
                         np.geomspace(1e-300, 50.0, 61))
    u, w = np.concatenate([u, ue.ravel()]), np.concatenate([w, we.ravel()])
    ref = _cms_textbook(alpha, u, w)
    got = mc._cms(alpha, u, w)
    assert np.all(np.isfinite(ref))
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_increment_rejects_bad_index():
    with pytest.raises(ValueError):
        mc.sample_stable_increment(2.5, 1.0, np.random.default_rng(0), 10)


@pytest.mark.parametrize("alphas,weights", [([1.2, 1.8], [1.0, 1.0]),
                                            ([0.6, 1.0, 1.8], [0.3, 0.5, 1.0])],
                         ids=["1.2-1.8", "0.6-1.0-1.8"])
def test_mixture_increment_characteristic_function(alphas, weights):
    # the increment over dt of psi = sum w_i |xi|^alpha_i has the characteristic
    # function exp(-dt psi(xi)); each empirical mean lies within 4.5 of its
    # standard errors (5 frequencies, real and imaginary parts)
    model = models.stable_mixture_model(alphas, weights)
    draw, alpha = mc._jump_sampler(model)
    assert alpha == max(alphas)
    dt, n = 0.5, 10 ** 6
    z = draw(np.random.default_rng(12), dt, n)
    for xi in (0.25, 0.5, 1.0, 2.0, 3.0):
        for part, ref in ((np.cos(xi * z), np.exp(-dt * model.psi(xi))), (np.sin(xi * z), 0.0)):
            assert abs(part.mean() - ref) <= 4.5 * part.std(ddof=1) / np.sqrt(n), (xi, ref)


def test_bins_cover_domain_exactly(two_interval):
    bins = mc.make_bins(two_interval, 0.05)
    length = sum(b - a for a, b in two_interval.intervals)
    assert bins.widths.sum() == pytest.approx(length, rel=1e-12)
    assert np.all(two_interval.contains(bins.centers))
    x = np.array([-0.999, -0.201, 0.201, 0.999])
    idx = _bin_index(bins, x)
    assert np.all((idx >= 0) & (idx < bins.n_bins))


def _bin_index(bins, x):
    """The Euler loop's bin lookup: the component of each position, then its bin."""
    return bins._index(mc._component(bins._lookup[0], x), x)


def _bin_index_oracle(bins, x):
    """Per-component bin lookup, one mask per interval."""
    idx = np.zeros(x.shape, dtype=np.int64)
    for (a, b), e, off in zip(bins.domain.intervals, bins.edges, bins.offsets):
        sel = (x > a) & (x < b)
        k = len(e) - 1
        idx[sel] = off + np.minimum((((x[sel] - a) / (b - a)) * k).astype(np.int64), k - 1)
    return idx


def test_bin_index_matches_per_component_lookup():
    D = interval_union((-1.0, -0.3), (0.1, 0.4), (0.6, 1.2))
    bins = mc.make_bins(D, 0.05)
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(a, b, 2000) for a, b in D.intervals]
                       + [np.nextafter(iv, np.mean(iv)) for iv in D.intervals]
                       + [e[1:-1] for e in bins.edges])
    x = x[D.contains(x)]
    assert np.array_equal(_bin_index(bins, x), _bin_index_oracle(bins, x))


@pytest.mark.parametrize("intervals,width", [
    ([(-1.0, 1.0)], 0.13),
    ([(-3.7, -2.05), (-1.9, -0.61)], 0.07),
    ([(-1.0, -0.3), (0.1, 0.4), (0.6, 1.2)], 0.045),
], ids=["one", "two-negative", "three"])
@pytest.mark.parametrize("by_bin", [True, False], ids=["bins", "components"])
def test_cell_bounds_are_exact(intervals, width, by_bin):
    # every cell is the float interval [lo, hi] of the positions the Euler
    # loop's lookup sends to it: lo and hi are in it, and one ulp beyond
    # either lies in the neighbouring cell or outside the component
    D = interval_union(*intervals)
    bins = mc.make_bins(D, width)
    lo, hi, comp = mc._cell_bounds(bins, by_bin)

    def cell(x):        # bin or component of each position; -1 outside D
        out = np.full(len(x), -1)
        inside = D.contains(x)
        c = mc._component(bins._lookup[0], x[inside])
        out[inside] = bins._index(c, x[inside]) if by_bin else c
        return out

    ids = np.arange(bins.n_bins if by_bin else len(intervals))
    new_comp = np.r_[True, comp[1:] != comp[:-1]]      # a component's first cell
    assert np.array_equal(comp[new_comp], np.arange(len(intervals)))
    assert np.array_equal(cell(lo), ids)
    assert np.array_equal(cell(hi), ids)
    assert np.array_equal(cell(np.nextafter(lo, -np.inf)), np.where(new_comp, -1, ids - 1))
    assert np.array_equal(cell(np.nextafter(hi, np.inf)),
                          np.where(np.r_[new_comp[1:], True], -1, ids + 1))


def _euler_two_lookups(pairs, b, D, x0, config, track_occupation=True):
    """The Euler loop with a fresh bin lookup at both ends of every step.

    pairs lists the (alpha_i, w_i) of the symbol sum_i w_i |xi|^alpha_i;
    each step draws one public ``sample_stable_increment`` over w_i dt per
    component, in order.
    """
    bins = mc.make_bins(D, config.bin_width)
    alpha = max(a for a, _ in pairs)
    cap_time = mc._CAP_FACTOR * min((D.diam / 2.0) ** a / w for a, w in pairs)
    d_ref = mc._REF_FRAC * D.r0
    d_floor = mc._FLOOR_FRAC * D.r0

    def walk_chunk(m, rng, occ_chunk):
        censored = 0
        x = np.full(m, float(x0))
        alive = np.arange(m)
        t_acc = np.zeros(m)
        ctau = np.empty(m)
        cpos = np.empty(m)
        while len(alive):
            dist = np.asarray(delta(D, x), dtype=float)
            dtv = config.dt * np.minimum(
                np.maximum(dist, d_floor) / d_ref, 1.0) ** alpha
            if track_occupation:
                occ_chunk[alive, _bin_index_oracle(bins, x)] += 0.5 * dtv
            jump = sum(mc.sample_stable_increment(a, w * dtv, rng, len(alive)) for a, w in pairs)
            x_new = x + np.asarray(b(x), dtype=float) * dtv + jump
            t_acc[alive] += dtv
            out = ~D.contains(x_new)
            if track_occupation and np.any(~out):
                occ_chunk[alive[~out], _bin_index_oracle(bins, x_new[~out])] += 0.5 * dtv[~out]
            hit_cap = t_acc[alive] >= cap_time
            finish = out | hit_cap
            if np.any(finish):
                fin = alive[finish]
                ctau[fin] = t_acc[fin]
                cpos[fin] = x_new[finish]
                censored += int(np.count_nonzero(hit_cap & ~out))
            keep = ~finish
            alive = alive[keep]
            x = x_new[keep]
        return ctau, cpos, censored

    return mc._run_chunks(config, bins, track_occupation, "euler", walk_chunk)


@pytest.mark.parametrize("case", ["drift", "time-cap", "pole", "mixture", "untracked"])
def test_euler_sample_matches_two_lookup_loop(stable15, monkeypatch, case):
    three = interval_union((-1.0, -0.3), (0.1, 0.4), (0.6, 1.2))
    model, pairs, track = stable15, [(ALPHA, 1.0)], True
    if case == "drift":
        D, b, x0 = three, sin_drift(1.0, 5.0), 0.2
        cfg = mc.PathConfig(dt=1e-3, n_paths=1500, seed=21, bin_width=0.05)
        monkeypatch.setattr(mc, "_CHUNK", 600)      # two chunks
    elif case == "time-cap":
        D, b, x0 = interval_union((-1.0, 1.0)), ZERO, 0.3
        cfg = mc.PathConfig(dt=1e-3, n_paths=1500, seed=22, bin_width=0.1)
        monkeypatch.setattr(mc, "_CAP_FACTOR", 0.05)    # a cap of 0.05 on (-1, 1)
    elif case == "pole":
        # the pole at 0.8 lies inside the third component, next to the source
        D, b, x0 = three, power_drift(0.3, center=0.8, strength=0.6), 0.9
        cfg = mc.PathConfig(dt=1e-3, n_paths=1500, seed=31, bin_width=0.05)
    elif case == "mixture":
        # driftless, so the mixture still takes the Euler loop; its cap is
        # 0.3 * 1.1^1.2 = 0.336, the alpha 1.2 component's, where a stable
        # model of the largest index would have 0.3 * 1.1^1.7 = 0.353
        pairs = [(1.2, 1.0), (1.7, 0.5)]
        model = models.stable_mixture_model(*zip(*pairs))
        D, b, x0 = interval_union((-1.3, -0.35), (0.15, 0.9)), ZERO, 0.4
        cfg = mc.PathConfig(dt=1e-3, n_paths=1500, seed=5, bin_width=0.07)
        monkeypatch.setattr(mc, "_CAP_FACTOR", 0.3)
    else:
        # criterion 8's route: driftless stable paths without occupation
        D, b, x0, track = interval_union((-1.0, 1.0)), ZERO, 0.0, False
        cfg = mc.PathConfig(dt=2e-3, n_paths=1200, seed=80)
        monkeypatch.setattr(mc, "_CHUNK", 600)
    s = mc._euler_exit(model, b, D, x0, cfg, track_occupation=track)
    ref = _euler_two_lookups(pairs, b, D, x0, cfg, track_occupation=track)
    assert (case in ("time-cap", "mixture")) == (ref.censored > 0)
    assert s.censored == ref.censored
    for name in ("tau", "exit_pos", "occupation", "occupation_m2"):
        assert getattr(s, name).tobytes() == getattr(ref, name).tobytes()


def test_one_component_mixture_draws_the_stable_paths(stable15, monkeypatch):
    D = interval_union((-1.0, -0.3), (0.1, 0.4), (0.6, 1.2))
    cfg = mc.PathConfig(dt=1e-3, n_paths=1500, seed=21, bin_width=0.05)
    monkeypatch.setattr(mc, "_CHUNK", 600)
    a, b = (mc.simulate_exit(m, sin_drift(1.0, 5.0), D, 0.2, cfg)
            for m in (stable15, models.stable_mixture_model([1.5], [1.0])))
    assert a.censored == b.censored
    for name in ("tau", "exit_pos", "occupation", "occupation_m2"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_exit_probability_symmetric(stable15, unit_interval):
    for engine, simulate in ENGINES.items():
        s = simulate(stable15, ZERO, unit_interval, 0.0,
                     mc.PathConfig(dt=2e-3, n_paths=20000, seed=42), track_occupation=False)
        assert s.engine == engine
        p = np.mean(s.exit_pos > 0)
        assert abs(p - 0.5) <= 3.0 * 0.5 / np.sqrt(s.n_paths), engine


def test_exit_never_on_boundary(unit_interval):
    # at alpha 1.9 about a sixth of the walk-on-spheres exits overshoot the
    # boundary by less than an ulp; they must still land strictly outside
    for alpha in (1.5, 1.9):
        for engine, simulate in ENGINES.items():
            s = simulate(models.stable_model(alpha), ZERO, unit_interval, 0.0,
                         mc.PathConfig(dt=2e-3, n_paths=5000, seed=1), track_occupation=False)
            assert s.engine == engine
            assert not np.any(np.abs(s.exit_pos) == 1.0), (engine, alpha)
            assert np.all(np.abs(s.exit_pos) > 1.0), (engine, alpha)


def test_engine_dispatch(stable15, unit_interval):
    cfg = mc.PathConfig(dt=2e-3, n_paths=50, seed=0)

    def engine(model, b, config=cfg):
        return mc.simulate_exit(model, b, unit_interval, 0.0, config,
                                track_occupation=False).engine

    assert engine(stable15, ZERO) == "walk-on-spheres"
    assert engine(stable15, constant_drift(1.0)) == "euler"
    assert engine(stable15, sin_drift(1.0, 5.0)) == "euler"
    assert engine(stable15, lambda z: np.zeros_like(z)) == "euler"    # no declared family
    assert engine(models.stable_mixture_model([1.2, 1.8], [1.0, 1.0]), ZERO) == "euler"


def test_drift_shifts_exit_law(stable15, unit_interval):
    cfg = mc.PathConfig(dt=2e-3, n_paths=20000, seed=7)
    s0 = mc._euler_exit(stable15, ZERO, unit_interval, 0.0, cfg, track_occupation=False)
    s1 = mc.simulate_exit(stable15, constant_drift(1.0), unit_interval, 0.0, cfg,
                          track_occupation=False)
    p0, p1 = np.mean(s0.exit_pos > 0), np.mean(s1.exit_pos > 0)
    assert p1 > p0 + 10.0 * 0.5 / np.sqrt(cfg.n_paths)


def _euler_mean_exit(model, D, x0, config):
    return mc.mean_exit_estimate(mc._euler_exit(model, ZERO, D, x0, config,
                                                track_occupation=False))


def test_mean_exit_time_against_closed_form(stable15, unit_interval):
    cfg = mc.PathConfig(dt=1e-3, n_paths=50000, seed=11)
    est = _euler_mean_exit(stable15, unit_interval, 0.0, cfg)
    closed = stable.mean_exit_time(ALPHA, (-1, 1), 0.0)
    assert abs(est.value - closed) <= 3.0 * est.se
    assert est.se == pytest.approx(np.std(
        mc._euler_exit(stable15, ZERO, unit_interval, 0.0, cfg,
                       track_occupation=False).tau, ddof=1) / np.sqrt(cfg.n_paths))


@pytest.mark.parametrize("alpha,x0", [(1.2, 0.3), (1.5, 0.7), (1.9, -0.95)])
def test_walk_on_spheres_mean_exit_time_against_closed_form(unit_interval, alpha, x0):
    cfg = mc.PathConfig(dt=1e-3, n_paths=50000, seed=11)
    model = models.stable_model(alpha)
    est = mc.mc_mean_exit_time(model, ZERO, unit_interval, x0, cfg)
    assert abs(est.value - stable.mean_exit_time(alpha, (-1, 1), x0)) <= 3.0 * est.se
    # from the centre the first ball is the whole interval: every walk
    # holds the exact mean exit time
    centre = mc.mc_mean_exit_time(model, ZERO, unit_interval, 0.0, cfg)
    assert centre.se <= 1e-15 * centre.value
    assert centre.value == pytest.approx(stable.mean_exit_time(alpha, (-1, 1), 0.0),
                                         rel=1e-14)


def test_mean_exit_time_step_halving_within_se(stable15, unit_interval):
    e1 = _euler_mean_exit(stable15, unit_interval, 0.0,
                          mc.PathConfig(dt=2e-3, n_paths=20000, seed=13))
    e2 = _euler_mean_exit(stable15, unit_interval, 0.0,
                          mc.PathConfig(dt=1e-3, n_paths=20000, seed=14))
    assert abs(e1.value - e2.value) < np.hypot(e1.se, e2.se) + e1.se


def test_mean_exit_vanishes_at_boundary(stable15, unit_interval):
    closed0 = stable.mean_exit_time(ALPHA, (-1, 1), 0.0)
    for engine, simulate in ENGINES.items():
        est = mc.mean_exit_estimate(simulate(
            stable15, ZERO, unit_interval, 0.995, mc.PathConfig(dt=1e-3, n_paths=4000, seed=3),
            track_occupation=False))
        assert est.value < 0.05 * closed0, engine


def test_green_histogram_matches_oracle(stable15, unit_interval):
    cfg = mc.PathConfig(dt=2e-3, n_paths=30000, seed=9, bin_width=0.1)
    for engine, simulate in ENGINES.items():
        bins, val, se, s = mc._green_estimate(simulate(stable15, ZERO, unit_interval, 0.0, cfg))
        assert s.engine == engine
        for k, (e0, e1) in enumerate(zip(bins.edges[0][:-1], bins.edges[0][1:])):
            ref, _ = integrate.quad(lambda y: stable.green_interval(ALPHA, (-1, 1), 0.0, y),
                                    e0, e1, points=[0.0] if e0 < 0.0 < e1 else None,
                                    limit=200)
            ref /= e1 - e0
            assert abs(val[k] - ref) <= 3.0 * se[k] + 0.01 * ref, engine


@pytest.mark.parametrize("alpha,x0", [(1.2, 0.3), (1.9, -0.8)])
def test_walk_on_spheres_occupation_matches_oracle_without_slack(unit_interval, alpha, x0):
    # exact per-ball occupations: no time-step slack, and a walk's bin
    # times add up to its tau to rounding
    bins, val, se, s = mc.mc_green(models.stable_model(alpha), ZERO, unit_interval, x0,
                                   mc.PathConfig(dt=1e-3, n_paths=20000, seed=8,
                                                 bin_width=0.1))
    G = green.stable_oracle(alpha, unit_interval)
    ref = [integrate.quad(lambda y: G.value(x0, y), e0, e1, limit=200,
                          points=[x0] if e0 < x0 < e1 else None)[0] / (e1 - e0)
           for e0, e1 in zip(bins.edges[0][:-1], bins.edges[0][1:])]
    z = np.abs(val - ref) / se
    assert np.all(z < 4.0)
    assert s.occupation.sum() == pytest.approx(s.tau.sum(), rel=1e-12)


def test_occupation_identity(stable15, unit_interval):
    bins, val, se, s = mc.mc_green(stable15, sin_drift(1.0, 5.0), unit_interval, 0.3,
                                   mc.PathConfig(dt=2e-3, n_paths=10000, seed=21,
                                                 bin_width=0.05))
    total = float(np.sum(val * bins.widths))
    tau_mean = float(np.mean(s.tau))
    tau_se = float(np.std(s.tau, ddof=1) / np.sqrt(s.n_paths))
    assert abs(total - tau_mean) <= max(tau_se, 2e-3 * tau_mean)


def test_se_scales_with_paths(stable15, unit_interval):
    # the walk on spheres starts off centre: from the centre its tau is exact
    for (engine, simulate), x0 in zip(ENGINES.items(), (0.0, 0.5)):
        e1, e2 = (mc.mean_exit_estimate(simulate(
            stable15, ZERO, unit_interval, x0, mc.PathConfig(dt=4e-3, n_paths=n, seed=seed),
            track_occupation=False)) for n, seed in ((10000, 31), (40000, 32)))
        assert e2.se == pytest.approx(0.5 * e1.se, rel=0.2), engine


def test_bitwise_reproducibility(stable15, unit_interval):
    cfg = mc.PathConfig(dt=2e-3, n_paths=4000, seed=123)
    a = mc.simulate_exit(stable15, sin_drift(1.0, 5.0), unit_interval, 0.2, cfg)
    b = mc.simulate_exit(stable15, sin_drift(1.0, 5.0), unit_interval, 0.2, cfg)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.exit_pos, b.exit_pos)
    assert np.array_equal(a.occupation, b.occupation)


def test_walk_on_spheres_bitwise_reproducibility(stable15, two_interval, monkeypatch):
    monkeypatch.setattr(mc, "_CHUNK", 2000)
    cfg = mc.PathConfig(dt=1e-3, n_paths=5000, seed=123)
    a, b = (mc.simulate_exit(stable15, ZERO, two_interval, 0.5, cfg) for _ in range(2))
    assert a.engine == "walk-on-spheres"
    for name in ("tau", "exit_pos", "occupation", "occupation_m2"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    other = mc.simulate_exit(stable15, ZERO, two_interval, 0.5,
                             mc.PathConfig(dt=1e-3, n_paths=5000, seed=124))
    assert not np.array_equal(a.exit_pos, other.exit_pos)


def test_walk_on_spheres_refuses_to_censor(stable15, unit_interval, monkeypatch):
    monkeypatch.setattr(mc, "_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="still inside"):
        mc.simulate_exit(stable15, ZERO, unit_interval, 0.7,
                         mc.PathConfig(dt=1e-3, n_paths=1000, seed=0))


def test_exit_law_ks_zero_drift(stable15, oracle15, unit_interval):
    cdf = green.exit_law_cdf(lambda z: green.poisson_kernel(oracle15, 0.0, z),
                             unit_interval)
    for engine, simulate in ENGINES.items():
        law = mc._exit_law(simulate(stable15, ZERO, unit_interval, 0.0,
                                    mc.PathConfig(dt=2e-3, n_paths=30000, seed=5),
                                    track_occupation=False), unit_interval)
        assert mc.ks_distance(law["sample"].exit_pos, cdf) < 0.015, engine
        assert law["boundary_hits"] == 0, engine
        # mirror symmetry of the histogram within multinomial noise
        counts = law["counts"]
        diff = np.abs(counts - counts[::-1])
        assert np.all(diff <= 5.0 * np.sqrt(np.maximum(counts + counts[::-1], 1.0))), engine


def _bin_averages(G, x0, bins, order=8):
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    out = []
    for e in bins.edges:
        for lo, hi in zip(e[:-1], e[1:]):
            pts = 0.5 * (hi - lo) * gl_x + 0.5 * (hi + lo)
            out.append(float(np.asarray(G.value(x0, pts)) @ gl_w) * 0.5)
    return np.array(out)


def test_two_interval_green_matches_numeric(stable15, two_interval, numeric15):
    # MC occupation in a union of intervals against the coupled solver; the
    # step must be small enough that the kink at the source stays unbiased
    bins, val, se, s = mc._green_estimate(mc._euler_exit(
        stable15, ZERO, two_interval, 0.5,
        mc.PathConfig(dt=5e-4, n_paths=30000, seed=17, bin_width=0.1)))
    ref = _bin_averages(numeric15, 0.5, bins)
    z = np.abs(val - ref) / np.maximum(se, 1e-12)
    assert np.all(z < 3.5)


def test_walk_on_spheres_cross_checks_numeric_union_green(stable15, two_interval, numeric15):
    # no closed form exists on a union; the exact walk is the high-precision
    # reference for the coupled solver's exit time and Green row
    x0 = 0.5
    bins, val, se, s = mc.mc_green(stable15, ZERO, two_interval, x0,
                                   mc.PathConfig(dt=5e-4, n_paths=200_000, seed=17,
                                                 bin_width=0.1))
    assert s.engine == "walk-on-spheres"
    est = mc.mean_exit_estimate(s)
    assert abs(est.value - green.exit_time_from_green(numeric15, x0)) <= 3.5 * est.se
    assert est.se < 2e-3 * est.value
    z = np.abs(val - _bin_averages(numeric15, x0, bins)) / se
    assert np.all(z < 4.0)


def test_censoring_reported(stable15, unit_interval, monkeypatch):
    monkeypatch.setattr(mc, "_CAP_FACTOR", 0.05)    # a cap of 0.05 on (-1, 1)
    cfg = mc.PathConfig(dt=1e-3, n_paths=200, seed=2)
    s = mc._euler_exit(stable15, ZERO, unit_interval, 0.0, cfg, track_occupation=False)
    assert s.engine == "euler"      # only the stepping engine censors
    assert s.censored > 0
    # a censored path reached the cap inside D, and exit_pos holds its last
    # position; every other path exited
    inside = unit_interval.contains(s.exit_pos)
    assert np.count_nonzero(inside) == s.censored
    assert np.all(s.tau[inside] >= 0.05)


_STABLE = models.stable_model(ALPHA)


@pytest.mark.parametrize("model,b", [
    # the retired family's cutoff density, caller-built and driftless: it has
    # no closed forms for the walk on spheres, and the Euler loop refuses it
    (models.LevyModel("truncated-stable", _STABLE.psi,
                      lambda r: np.where(np.asarray(r) <= 2.0, _STABLE.nu(r), 0.0)), ZERO),
    (models.LevyModel("custom", _STABLE.psi,
                      lambda r: np.asarray(r, dtype=float) ** -2.5), constant_drift(1.0)),
], ids=["truncated-stable", "custom"])
def test_models_without_exact_increments_are_refused(unit_interval, monkeypatch, model, b):
    def no_paths(*args):
        raise AssertionError("paths were drawn")
    monkeypatch.setattr(mc, "_run_chunks", no_paths)
    with pytest.raises(ValueError, match=model.family):
        mc.simulate_exit(model, b, unit_interval, 0.0,
                         mc.PathConfig(dt=2e-3, n_paths=100, seed=19))


def test_green_se_keeps_its_digits_beside_a_large_mean(monkeypatch):
    # per-path occupations near 1e4 spread by 1e-4: E[x^2] - E[x]^2 would
    # cancel every digit; the chunks' deviation sums keep them
    monkeypatch.setattr(mc, "_CHUNK", 600)      # two chunks
    cfg = mc.PathConfig(dt=1e-3, n_paths=1500, seed=5, bin_width=0.5)
    bins = mc.make_bins(interval_union((-1.0, 1.0)), cfg.bin_width)
    written = []

    def walk_chunk(m, rng, occ_chunk):
        occ_chunk += 1e4 + 1e-4 * (rng.standard_normal(occ_chunk.shape) + len(written))
        written.append(occ_chunk.copy())
        return np.zeros(m), np.zeros(m), 0

    _, val, se, _ = mc._green_estimate(mc._run_chunks(cfg, bins, True, "euler", walk_chunk))
    occ = np.concatenate(written)
    assert len(written) == 2 and occ.shape == (cfg.n_paths, bins.n_bins)
    assert np.allclose(val, occ.mean(axis=0) / bins.widths, rtol=1e-12, atol=0.0)
    want = np.std(occ, axis=0, ddof=0) / np.sqrt(cfg.n_paths) / bins.widths
    assert np.max(np.abs(se / want - 1.0)) <= 1e-9


def test_start_outside_rejected(stable15, unit_interval):
    with pytest.raises(ValueError):
        mc.simulate_exit(stable15, constant_drift(0.0), unit_interval, 1.5,
                         mc.PathConfig(dt=1e-3, n_paths=10, seed=0))


def test_nonfinite_drift_aborts(stable15, unit_interval):
    def hostile(z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) < 0.02, np.nan, 0.0)
    with pytest.raises(FloatingPointError):
        mc.simulate_exit(stable15, hostile, unit_interval, 0.0,
                         mc.PathConfig(dt=1e-3, n_paths=50, seed=0),
                         track_occupation=False)


# Dynkin's identity for L + b d applied to v, the summed interval mean exit
# times: E tau = v(x0) + E int (c + b v')(X_s) ds with c = L v + 1

README_UNION = ((-1.0, -0.2), (0.2, 1.0))
THREE = ((-1.0, -0.425), (-0.175, 0.4), (0.65, 1.225))


def _nearest_component(D, x):
    left, right = np.array(D.intervals).T
    return np.argmin(np.maximum(left - x, x - right))


@pytest.mark.parametrize("intervals", [README_UNION, THREE], ids=["readme", "three"])
@pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
def test_cross_rate_table_matches_exit_density_quadrature(intervals, alpha):
    # L v_j outside I_j in an independent form: by the Ikeda-Watanabe formula
    # it is the exit density P_j(y, x) integrated over the start y in I_j
    D = interval_union(*intervals)
    nodes, rate = mc._cross_rate(alpha, D)
    # the two nodes on each side of every end, and 30 more anywhere
    ends = np.searchsorted(nodes, np.ravel(D.intervals))
    near_ends = np.clip(ends[:, None] + np.arange(-2, 2), 0, len(nodes) - 1).ravel()
    pick = np.concatenate([near_ends, np.random.default_rng(5).integers(0, len(nodes), 30)])
    for i in pick:
        x = nodes[i]
        k = _nearest_component(D, x)
        ref = sum(integrate.quad(lambda y: stable.poisson_interval(alpha, iv, y, x), *iv,
                                 epsabs=0.0, epsrel=1e-12, limit=200)[0]
                  for j, iv in enumerate(D.intervals) if j != k)
        assert rate[i] == pytest.approx(ref, rel=1e-8, abs=0.0), (i, x)


@pytest.mark.parametrize("intervals", [README_UNION, THREE, ((-1.0, 1.0),)],
                         ids=["readme", "three", "one"])
def test_dynkin_scorer_adds_c_plus_b_dv(intervals):
    # c interpolated from its table to 1e-6 of the closed form, and v' of the
    # path's component against central differences of the mean exit time
    alpha = 1.6
    D = interval_union(*intervals)
    add, scale = mc._dynkin_scorer(alpha, D)
    left, right = np.array(D.intervals).T
    rng = np.random.default_rng(8)
    x = np.concatenate([np.r_[rng.uniform(a, b, 4000), np.nextafter([a, b], [b, a])]
                        for a, b in D.intervals])
    comp = np.searchsorted(left, x, side="right") - 1
    dl, dr = x - left[comp], right[comp] - x
    c = np.zeros(len(x))
    add(c, x, dl, dr, np.zeros(len(x)), np.ones(len(x)))
    c *= scale
    exact = np.zeros(len(x))
    for j, iv in enumerate(D.intervals):
        exact[comp != j] += stable.mean_exit_time_generator(alpha, iv, x[comp != j])
    if len(intervals) == 1:
        assert not np.any(c)
    else:
        assert np.max(np.abs(c / exact - 1.0)) <= 1e-6
    score = np.zeros(len(x))
    bx = rng.uniform(-2.0, 2.0, len(x))
    dtv = rng.uniform(1e-4, 1e-3, len(x))
    add(score, x, dl, dr, bx, dtv)
    dv = (scale * score / dtv - c) / bx
    inner = np.minimum(dl, dr) > 1e-3
    h = 1e-6

    def v(z):
        return sum(stable.mean_exit_time(alpha, iv, z) for iv in D.intervals)

    fd = (v(x[inner] + h) - v(x[inner] - h)) / (2.0 * h)
    assert np.allclose(dv[inner], fd, rtol=1e-6, atol=1e-8)


def _nystrom_mean_exit(alpha, D, b, x0, nodes=640):
    G = green.numeric_table_green(alpha, D, nodes_per_component=nodes)
    grid = perturbation.build_grid(D, nodes, alpha)
    return float(perturbation.solve_perturbed(G, b, grid).row(x0) @ grid.weights)


@pytest.mark.parametrize("case", ["sin", "pole"])
def test_combined_mean_exit_time_matches_nystrom(case):
    D = interval_union(*README_UNION)
    if case == "sin":
        alpha, b, x0 = 1.5, sin_drift(1.0, 5.0), 0.5
    else:       # the pole at 0.6 lies inside the source's component
        alpha, b, x0 = 1.75, power_drift(0.375, center=0.6, strength=0.6), 0.4
    s = mc.simulate_exit(models.stable_model(alpha), b, D, x0,
                         mc.PathConfig(dt=5e-4, n_paths=10_000, seed=3),
                         track_occupation=False)
    est, dynkin = mc.dynkin_mean_exit_estimate(s)
    raw = mc.mean_exit_estimate(s)
    ref = _nystrom_mean_exit(alpha, D, b, x0)
    assert abs(est.value - ref) <= 4.0 * est.se, (est, ref)
    assert abs(raw.value - ref) <= 4.0 * raw.se, (raw, ref)
    assert dynkin["variance_ratio"] > 10.0
    assert mc.mc_mean_exit_time(models.stable_model(alpha), b, D, x0,
                                mc.PathConfig(dt=5e-4, n_paths=10_000, seed=3)) == est


@pytest.mark.parametrize("alpha,intervals,x0,drift", [
    (1.45, ((-1.0, -0.2), (0.2, 1.0)), 0.48, sin_drift(1.0, 5.0)),
    (1.25, THREE, 0.1125, constant_drift(1.0)),
    (1.75, ((-1.0, -0.2), (0.2, 1.0)), -0.68, power_drift(0.375, center=0.6, strength=0.6)),
    (1.4, ((-1.0, -0.2), (0.2, 1.0)), 0.68, constant_drift(1.0)),
], ids=["a-sin", "b-constant-three", "c-power", "d-constant"])
def test_combined_se_is_at_most_the_raw_se(alpha, intervals, x0, drift):
    # perturb-crosscheck-like configs, with bins as the mc command keeps them
    s = mc.simulate_exit(models.stable_model(alpha), drift, interval_union(*intervals), x0,
                         mc.PathConfig(dt=5e-4, n_paths=4000, seed=11, bin_width=0.1))
    est, dynkin = mc.dynkin_mean_exit_estimate(s)
    raw = mc.mean_exit_estimate(s)
    assert est.se <= raw.se
    assert dynkin["variance_ratio"] == (raw.se / est.se) ** 2
    z = s.tau - dynkin["lambda"] * (s.tau - s.identity)
    assert est.value == pytest.approx(z.mean(), rel=1e-14)
    assert est.se == pytest.approx(np.std(z, ddof=2) / np.sqrt(s.n_paths), rel=1e-12)
    assert dynkin["variance_ratio"] > 3.0


@pytest.mark.parametrize("route", ["walk-on-spheres", "mixture", "zero-drift-euler"])
def test_unscored_samples_report_the_raw_estimate(stable15, route):
    D = interval_union(*README_UNION)
    cfg = mc.PathConfig(dt=2e-3, n_paths=2000, seed=4)
    if route == "walk-on-spheres":
        s = mc.simulate_exit(stable15, ZERO, D, 0.5, cfg, track_occupation=False)
    elif route == "mixture":
        s = mc.simulate_exit(models.stable_mixture_model([1.2, 1.8], [1.0, 0.5]),
                             sin_drift(1.0, 5.0), D, 0.5, cfg, track_occupation=False)
    else:
        s = mc._euler_exit(stable15, ZERO, D, 0.5, cfg, track_occupation=False)
    assert s.identity is None
    est, dynkin = mc.dynkin_mean_exit_estimate(s)
    raw = mc.mean_exit_estimate(s)
    assert dynkin is None
    assert (est.value, est.se) == (raw.value, raw.se)
    assert np.float64(est.value).tobytes() == np.float64(raw.value).tobytes()


def test_censored_paths_score_the_stopped_identity(stable15, monkeypatch):
    # a path stopped at the cap inside D scores E[tau ^ cap] = v(x0) - E v(X)
    # + E int (c + b v'): without the - v(X) term the identities' mean sits
    # 0.45 above the mean of the capped times (3000 of 4000 paths capped)
    monkeypatch.setattr(mc, "_CAP_FACTOR", 0.3)     # a cap of 0.3 on (-1, 1)
    s = mc._euler_exit(stable15, sin_drift(1.0, 5.0), interval_union((-1.0, 1.0)), 0.0,
                       mc.PathConfig(dt=1e-3, n_paths=4000, seed=6), track_occupation=False)
    assert s.censored > 1000
    diff = s.tau - s.identity
    assert abs(diff.mean()) <= 4.0 * diff.std(ddof=1) / np.sqrt(s.n_paths)


def test_estimators_need_two_paths(stable15):
    with pytest.raises(ValueError, match="n_paths must be an integer >= 2"):
        mc.PathConfig(dt=1e-3, n_paths=1)
    s = mc.simulate_exit(stable15, sin_drift(1.0, 5.0), interval_union((-1.0, 1.0)), 0.0,
                         mc.PathConfig(dt=1e-3, n_paths=2, seed=0), track_occupation=False)
    # with 2 paths the fitted lambda leaves the residuals no degree of freedom
    assert mc.dynkin_mean_exit_estimate(s) == (mc.mean_exit_estimate(s), None)
    one = dataclasses.replace(s, tau=s.tau[:1], exit_pos=s.exit_pos[:1],
                              identity=s.identity[:1], n_paths=1)
    for estimator in (mc.mean_exit_estimate, mc.dynkin_mean_exit_estimate):
        with pytest.raises(ValueError, match="at least 2 paths"):
            estimator(one)


def test_exit_law_samples_skip_the_score(stable15, monkeypatch):
    # the exit law reads no identity, so its paths carry no score; the score
    # draws no random number, so the paths are those of a scored run
    D, b = interval_union(*README_UNION), sin_drift(1.0, 5.0)
    cfg = mc.PathConfig(dt=1e-3, n_paths=3000, seed=8)
    scored = mc.simulate_exit(stable15, b, D, 0.5, cfg, track_occupation=False)
    assert scored.identity is not None

    def refuse(alpha, D):
        raise AssertionError("the exit law scored its paths")

    monkeypatch.setattr(mc, "_dynkin_scorer", refuse)
    s = mc.mc_exit_law(stable15, b, D, 0.5, cfg)["sample"]
    assert s.identity is None and s.censored == scored.censored
    assert s.tau.tobytes() == scored.tau.tobytes()
    assert s.exit_pos.tobytes() == scored.exit_pos.tobytes()
    with pytest.raises(AssertionError, match="scored its paths"):
        mc.mc_green(stable15, b, D, 0.5, cfg)
