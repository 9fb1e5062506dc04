import hashlib

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.spatial import cKDTree

from derainkit import (
    RainConfig,
    SensorCalibration,
    builtin_scene,
    expected_drop_concentration,
    inject_rain,
    intersect_beam,
    marshall_palmer_lambda,
    raycast_scene,
    sample_drop_field,
)
from derainkit.core import RAIN, PointCloud, grid_calibration
from derainkit.errors import (
    DegenerateBoundsError,
    InvalidInputError,
    NonPositiveRateError,
    TooLargeError,
)
from derainkit.pgm import beam_directions, flatten, project_to_pgm
from derainkit.rainsim import beam_field_bounds, cumulative_hazard, diameter_cdf, drop_moments
from derainkit.scene import BUILTIN_SCENE_NAMES


def test_lambda_values():
    assert marshall_palmer_lambda(1) == pytest.approx(4.1)
    assert marshall_palmer_lambda(10) == pytest.approx(4.1 * 10 ** -0.21, rel=1e-12)
    assert marshall_palmer_lambda(10) == pytest.approx(2.528, abs=1e-3)
    assert marshall_palmer_lambda(50) == pytest.approx(1.803, abs=1e-3)


def test_lambda_rejects_nonpositive():
    with pytest.raises(NonPositiveRateError):
        marshall_palmer_lambda(0)


@pytest.mark.parametrize("bad", [
    {"n0": np.nan}, {"n0": 0.0}, {"n0": -8000.0}, {"n0": np.inf},
    {"rate": np.inf},
    {"beam_divergence": np.nan}, {"beam_divergence": np.pi / 2}, {"beam_divergence": 2.0},
    {"rain_reflectance": 2.0}, {"rain_reflectance": -0.1}, {"rain_reflectance": np.nan},
    {"d_max": np.inf},
    {"seed": -1}, {"seed": 2 ** 128}, {"seed": 1.5},
], ids=lambda bad: "-".join(f"{k}={v:.4g}" for k, v in bad.items()))
def test_rain_config_rejects_values_that_break_later_stages(bad):
    with pytest.raises(InvalidInputError):
        RainConfig(**{"rate": 10.0, **bad})


def test_rain_config_seed_range_ends():
    for seed in (0, 2 ** 128 - 1):
        assert RainConfig(25.0, seed=seed).seed == seed


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan])
def test_rain_config_rejects_nonpositive_rate(rate):
    with pytest.raises(NonPositiveRateError):
        RainConfig(rate=rate)


def test_concentration_matches_quadrature():
    config = RainConfig(rate=10)
    lam = marshall_palmer_lambda(10)
    numeric, _ = integrate.quad(lambda d: config.n0 * np.exp(-lam * d),
                                config.d_min, config.d_max)
    assert expected_drop_concentration(config) == pytest.approx(numeric, rel=1e-6)
    assert expected_drop_concentration(config) == pytest.approx(894, abs=2)


def test_concentration_linear_in_n0():
    base = expected_drop_concentration(RainConfig(rate=25))
    doubled = expected_drop_concentration(RainConfig(rate=25, n0=16000))
    assert doubled == pytest.approx(2 * base, rel=1e-12)


def test_concentration_empty_interval():
    lam = marshall_palmer_lambda(10)
    n0 = 8000
    # closed form collapses to 0 when d_min == d_max
    assert (n0 / lam) * (np.exp(-lam * 2.0) - np.exp(-lam * 2.0)) == 0.0


def test_sample_zero_volume_bounds():
    field = sample_drop_field(RainConfig(rate=10), ([0, 0, 0], [0, 1, 1]))
    assert len(field) == 0


def test_sample_degenerate_bounds_error():
    with pytest.raises(DegenerateBoundsError):
        sample_drop_field(RainConfig(rate=10), ([1, 0, 0], [0, 1, 1]))


@pytest.mark.parametrize("bounds", [
    ([0, np.nan, 0], [1, 1, 1]),  # a NaN side is no zero-volume box
    ([0, 0, 0], [1, np.inf, 1]),
    ([-np.inf, 0, 0], [1, 1, 1]),
])
def test_sample_non_finite_corner_is_degenerate(bounds):
    with pytest.raises(DegenerateBoundsError):
        sample_drop_field(RainConfig(rate=10), bounds)


@pytest.mark.parametrize("bounds", [
    ([0, 0, 0], [1e200] * 3),  # the volume overflows to inf
    ([-1e308] * 3, [1e308] * 3),  # so does each side
    ([-1e308, 0, 0], [1e308, 0, 1]),  # an infinite side times a zero one: nan
    ([0, 0, 0], [1e6] * 3),  # finite, but past the largest count numpy draws
])
def test_sample_box_too_large_to_draw(bounds):
    # warnings are errors in this suite: the volume is formed without an overflow warning
    with pytest.raises(TooLargeError):
        sample_drop_field(RainConfig(rate=10), bounds)


def test_sample_deterministic():
    config = RainConfig(rate=25, seed=42)
    bounds = ([0, 0, 0], [2, 2, 2])
    a = sample_drop_field(config, bounds)
    b = sample_drop_field(config, bounds)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.diameters, b.diameters)


def sample_drop_field_with_uniform(config, bounds):
    """sample_drop_field as first written, with two ``Generator.uniform`` draws."""
    lo = np.asarray(bounds[0], dtype=np.float64).reshape(3)
    hi = np.asarray(bounds[1], dtype=np.float64).reshape(3)
    volume = float(np.prod(hi - lo))
    rng = np.random.default_rng(config.seed)
    count = int(rng.poisson(expected_drop_concentration(config) * volume)) if volume > 0 else 0
    if count == 0:
        return np.empty((0, 3)), np.empty(0)
    centers = rng.uniform(lo, hi, size=(count, 3))
    lam = marshall_palmer_lambda(config.rate)
    u = rng.uniform(0.0, 1.0, count)
    e_lo = np.exp(-lam * config.d_min)
    e_hi = np.exp(-lam * config.d_max)
    return centers, -np.log(e_lo - u * (e_lo - e_hi)) / lam


def test_sample_drop_field_matches_uniform_draws_bit_for_bit():
    rng = np.random.default_rng(22)
    boxes = [([0, 0, 0], [2, 2, 2]), ([-3.5, -1e-3, 7.0], [-1.0, 4.0, 7.25]),
             beam_field_bounds(SensorCalibration(np.linspace(-0.42, 0.03, 8),
                                                 np.linspace(-0.7, 0.7, 32), r_max=4.0))]
    boxes += [(lo, lo + rng.uniform(0.0, 3.0, 3)) for lo in rng.uniform(-9, 9, (3, 3))]
    drops = 0
    for bounds in boxes:
        for rate, seed, d_min, d_max in ((10.0, 0, 0.5, 6.0), (25.0, 7, 0.2, 5.0),
                                         (50.0, 2 ** 64 + 3, 0.5, 6.0), (120.0, 4611, 1.0, 2.0)):
            config = RainConfig(rate=rate, seed=seed, d_min=d_min, d_max=d_max)
            field = sample_drop_field(config, bounds)
            centers, diameters = sample_drop_field_with_uniform(config, bounds)
            assert field.centers.tobytes() == centers.tobytes()
            assert field.diameters.tobytes() == diameters.tobytes()
            drops += len(field)
    assert drops > 10_000
    flat = ([0, 0, 0], [0, 1, 1])
    assert len(sample_drop_field(RainConfig(rate=10), flat)) == 0
    assert sample_drop_field_with_uniform(RainConfig(rate=10), flat)[0].shape == (0, 3)
    with pytest.raises(DegenerateBoundsError):
        sample_drop_field(RainConfig(rate=10), ([1, 0, 0], [0, 1, 1]))


def test_diameter_distribution_ks():
    config = RainConfig(rate=10, seed=1)
    # big enough box to get ~1e5 drops
    volume = 1.2e5 / expected_drop_concentration(config)
    side = volume ** (1 / 3)
    field = sample_drop_field(config, ([0, 0, 0], [side] * 3))
    assert len(field) > 5e4
    result = stats.kstest(field.diameters, lambda d: diameter_cdf(d, config))
    assert result.statistic < 0.01


def test_intersect_beam_on_axis():
    assert intersect_beam([0, 0, 0], [0, 0, 1], np.array([0.0, 0.0, 7.0]), 2.0,
                          1e-3) == pytest.approx(7.0)


def test_intersect_beam_behind_origin():
    assert intersect_beam([0, 0, 0], [0, 0, 1], np.array([0.0, 0.0, -3.0]), 2.0, 1e-3) is None


def test_intersect_beam_off_axis_arithmetic():
    # 5 mm off axis at t = 2 m; radius 1 mm + footprint 2 mm = 3 mm < 5 mm
    assert intersect_beam([0, 0, 0], [1, 0, 0], np.array([2.0, 0.005, 0.0]), 2.0, 1e-3) is None
    close = np.array([2.0, 0.0025, 0.0])
    assert intersect_beam([0, 0, 0], [1, 0, 0], close, 2.0, 1e-3) == pytest.approx(2.0)


def rainy_setup(rate=25.0, seed=0, v=12, h=32, r_max=10.0):
    calib = SensorCalibration(np.linspace(-0.4, 0.05, v), np.linspace(-0.6, 0.6, h),
                              r_max=r_max, r_min=0.5, sensor_height=2.0)
    grid, labels = raycast_scene(builtin_scene("rehearse-like"), calib, 0.0)
    return calib, grid, labels, RainConfig(rate=rate, seed=seed)


def test_inject_deterministic():
    calib, grid, labels, config = rainy_setup()
    g1, l1 = inject_rain(grid, labels, calib, config)
    g2, l2 = inject_rain(grid, labels, calib, config)
    np.testing.assert_array_equal(g1.coords, g2.coords)
    np.testing.assert_array_equal(g1.intensity, g2.intensity)
    np.testing.assert_array_equal(l1.labels, l2.labels)


def test_inject_rain_points_closer_than_original():
    calib, grid, labels, config = rainy_setup(rate=50.0, seed=3)
    rainy, rlabels = inject_rain(grid, labels, calib, config)
    new_rain = (rlabels.labels == RAIN) & (labels.labels != RAIN)
    assert new_rain.any()
    flat_new = rainy.ranges.reshape(-1)[new_rain]
    flat_old = np.where(grid.unreturned, calib.r_max, grid.ranges).reshape(-1)[new_rain]
    assert (flat_new < flat_old).all()
    assert (flat_new >= calib.r_min).all()
    assert (rainy.intensity.reshape(-1)[new_rain] == config.rain_reflectance).all()


def test_inject_untouched_cells_bit_identical():
    calib, grid, labels, config = rainy_setup(rate=25.0, seed=9)
    rainy, rlabels = inject_rain(grid, labels, calib, config)
    untouched = rlabels.labels != RAIN
    np.testing.assert_array_equal(rlabels.labels[untouched], labels.labels[untouched])
    grid_mask = untouched.reshape(grid.ranges.shape)
    np.testing.assert_array_equal(rainy.ranges[grid_mask], grid.ranges[grid_mask])
    np.testing.assert_array_equal(rainy.coords[grid_mask], grid.coords[grid_mask])
    np.testing.assert_array_equal(rainy.unreturned[grid_mask], grid.unreturned[grid_mask])


def test_inject_no_occlusion_only_fills_unreturned():
    calib, grid, labels, config = rainy_setup(rate=50.0, seed=5)
    rainy, rlabels = inject_rain(grid, labels, calib, config, occlude_returns=False)
    new_rain = (rlabels.labels == RAIN).reshape(grid.ranges.shape)
    assert not (new_rain & ~grid.unreturned).any()


def test_higher_rate_rains_superset_no_hit_further_out():
    """One seed couples the rates: a higher rate rains every beam a lower one rains, and
    no hit lies further out, so scans at two rates differ only by the rate."""
    calib, grid, labels, _ = rainy_setup()
    for occlude in (True, False):
        for seed in range(50):
            rained_before = np.zeros(labels.count, dtype=bool)
            hits_before = np.full(labels.count, np.inf)
            for rate in (1.0, 5.0, 10.0, 25.0, 50.0, 100.0):
                rainy, rlabels = inject_rain(grid, labels, calib, RainConfig(rate, seed=seed),
                                             occlude_returns=occlude)
                rained = rlabels.labels == RAIN
                hits = np.where(rained, rainy.ranges.reshape(-1), np.inf)
                assert not (rained_before & ~rained).any()
                assert (hits <= hits_before).all()
                rained_before, hits_before = rained, hits


def test_empirical_concentration_matches_expected():
    config = RainConfig(rate=10)
    bounds = ([0, 0, 0], [1.0, 1.0, 1.0])
    counts = [len(sample_drop_field(RainConfig(rate=10, seed=s), bounds)) for s in range(100)]
    assert np.mean(counts) == pytest.approx(expected_drop_concentration(config), rel=0.03)


# ------------------------------------------------ per-beam hit distribution

def beam_limits(grid, calib):
    return np.where(grid.unreturned, calib.r_max, grid.ranges).reshape(-1)


def first_hit_cdf(ranges, limits, r_min, config):
    """F_b(t) = (1 - exp(-Lambda(t))) / (1 - exp(-Lambda(L_b))) per hit.

    Uniform(0, 1) for the first drop hit on beam b conditioned on one before L_b.
    """
    hazard = cumulative_hazard(r_min, config)
    return -np.expm1(-hazard(ranges)) / -np.expm1(-hazard(limits))


def hit_cdf_values(rainy, rlabels, grid, calib, config):
    """first_hit_cdf of every rain return inject_rain wrote."""
    rained = rlabels.labels == RAIN
    return first_hit_cdf(rainy.ranges.reshape(-1)[rained], beam_limits(grid, calib)[rained],
                         calib.r_min, config)


def expected_rained(grid, calib, config):
    return float(-np.expm1(-cumulative_hazard(calib.r_min, config)(beam_limits(grid, calib))).sum())


def oracle_first_hits(grid, calib, config):
    """First drop hit of every beam from an explicit drop field.

    Every drop that could hit any beam is tested with intersect_beam's
    geometry: a hit needs sin(angle to the axis) <= d_max/2000/r_min +
    tan(divergence), so a ball query over beam directions at that angle
    returns a superset of each drop's hit beams.
    """
    field = sample_drop_field(config, beam_field_bounds(calib))
    norms = np.linalg.norm(field.centers, axis=1)
    near = norms >= calib.r_min
    centers, radii, norms = field.centers[near], field.diameters[near] / 2000.0, norms[near]
    tan_div = np.tan(config.beam_divergence)
    max_angle = np.arcsin(min(1.0, config.d_max / 2000.0 / calib.r_min + tan_div)) * 1.001
    dirs = beam_directions(calib).reshape(-1, 3)
    tree, k = cKDTree(dirs), 4
    while True:  # widen until every drop has fewer than k candidate beams
        dist, beam = tree.query(centers / norms[:, None], k=k,
                                distance_upper_bound=2 * np.sin(max_angle / 2))
        if np.isinf(dist[:, -1]).all():
            break
        k *= 2
    drop, slot = np.nonzero(np.isfinite(dist))
    beam = beam[drop, slot]
    t = np.einsum("ij,ij->i", centers[drop], dirs[beam])
    perp = np.linalg.norm(centers[drop] - t[:, None] * dirs[beam], axis=1)
    limits = beam_limits(grid, calib)
    hit = ((t > 0) & (perp <= radii[drop] + t * tan_div)
           & (t >= calib.r_min) & (t < limits[beam]))
    first = np.full(dirs.shape[0], np.inf)
    np.minimum.at(first, beam[hit], t[hit])
    return first


def test_oracle_matches_intersect_beam():
    # beams 2-4 mrad apart in a dense field: most drops are candidates for several beams
    calib = SensorCalibration(np.linspace(-0.004, 0.004, 3), np.linspace(-0.004, 0.004, 5),
                              r_max=2.0, r_min=0.5)
    grid, labels = raycast_scene(builtin_scene("rehearse-like"), calib, 0.0)
    config = RainConfig(rate=50.0, n0=8e6, seed=2)
    first = oracle_first_hits(grid, calib, config)
    field = sample_drop_field(config, beam_field_bounds(calib))
    dirs = beam_directions(calib).reshape(-1, 3)
    limits = beam_limits(grid, calib)
    for b, d in enumerate(dirs):
        ts = [t for c, dia in zip(field.centers, field.diameters)
              if (t := intersect_beam([0, 0, 0], d, c, float(dia),
                                      config.beam_divergence)) is not None
              and calib.r_min <= t < limits[b]]
        assert first[b] == (min(ts) if ts else np.inf)
    assert np.isfinite(first).sum() >= 10


def test_drop_field_oracle_follows_hazard():
    """The analytic first-hit law against explicit drop fields, 16x64 / 8 m."""
    calib = SensorCalibration(np.linspace(-0.42, 0.03, 16), np.linspace(-0.7, 0.7, 64),
                              r_max=8.0, r_min=0.5, sensor_height=2.0)
    grid, labels = raycast_scene(builtin_scene("rehearse-like"), calib, 0.0)
    limits = beam_limits(grid, calib)
    cdf_values, counts = [], []
    for seed in range(10):
        config = RainConfig(rate=50.0, seed=seed)
        first = oracle_first_hits(grid, calib, config)
        rained = np.isfinite(first)
        counts.append(rained.sum())
        cdf_values.append(first_hit_cdf(first[rained], limits[rained], calib.r_min, config))
    expected = expected_rained(grid, calib, RainConfig(rate=50.0))
    assert np.mean(counts) == pytest.approx(expected, rel=0.03)
    assert stats.kstest(np.concatenate(cdf_values), "uniform").statistic < 0.02


def test_dense_grid_hits_follow_hazard():
    """8x2048 beams closer than a drop diameter plus footprint apart at short range.

    A nearest-cell stencil misses hits here; per-beam sampling must not.
    """
    calib = SensorCalibration(np.linspace(-0.42, 0.03, 8), np.linspace(-0.7, 0.7, 2048),
                              r_max=3.0, r_min=0.5, sensor_height=2.0)
    grid, labels = raycast_scene(builtin_scene("rehearse-like"), calib, 0.0)
    cdf_values, counts = [], []
    for seed in range(5):
        config = RainConfig(rate=50.0, seed=seed)
        rainy, rlabels = inject_rain(grid, labels, calib, config)
        counts.append(int((rlabels.labels == RAIN).sum()))
        cdf_values.append(hit_cdf_values(rainy, rlabels, grid, calib, config))
    expected = expected_rained(grid, calib, RainConfig(rate=50.0))
    assert expected == pytest.approx(1287, abs=1)
    assert np.mean(counts) == pytest.approx(expected, rel=0.03)
    assert stats.kstest(np.concatenate(cdf_values), "uniform").statistic < 0.02


# ------------------------------------------------ hazard and edge calibrations

def test_hazard_matches_drop_field_quadrature():
    config = RainConfig(rate=25.0, beam_divergence=5e-3)
    lam = marshall_palmer_lambda(config.rate)
    r_min, limit = 0.5, 12.0

    def cross_section(d, t):  # drops per m^3 per mm times the hit area in m^2
        return config.n0 * np.exp(-lam * d) * np.pi * (d / 2000.0 + t * np.tan(5e-3)) ** 2

    numeric, _ = integrate.dblquad(cross_section, r_min, limit, config.d_min, config.d_max,
                                   epsabs=0, epsrel=1e-10)
    hazard = cumulative_hazard(r_min, config)
    assert hazard(limit) == pytest.approx(numeric, rel=1e-8)
    assert hazard(r_min) == 0.0
    for p, moment in enumerate(drop_moments(config)):
        numeric, _ = integrate.quad(lambda d: config.n0 * np.exp(-lam * d) * (d / 2000.0) ** p,
                                    config.d_min, config.d_max, epsabs=0, epsrel=1e-12)
        assert moment == pytest.approx(numeric, rel=1e-10)


def test_inject_single_beam_calibration():
    # a single beam spans a zero-volume drop-field box; per-beam sampling still rains
    calib = SensorCalibration([-0.1], [0.0], r_max=10.0, r_min=0.5)
    grid, labels = raycast_scene(builtin_scene("rehearse-like"), calib, 0.0)
    assert len(sample_drop_field(RainConfig(rate=50.0), beam_field_bounds(calib))) == 0
    limit = beam_limits(grid, calib)[0]
    ranges = []
    for seed in range(1000):
        rainy, rlabels = inject_rain(grid, labels, calib, RainConfig(rate=50.0, seed=seed))
        if rlabels.labels[0] == RAIN:
            ranges.append(rainy.ranges[0, 0])
            assert np.allclose(rainy.coords[0, 0], beam_directions(calib)[0, 0] * ranges[-1])
    ranges = np.array(ranges)
    reach = cumulative_hazard(calib.r_min, RainConfig(rate=50.0))(limit)
    assert len(ranges) / 1000 == pytest.approx(-np.expm1(-reach), abs=0.03)
    assert ((ranges >= calib.r_min) & (ranges < limit)).all()


def test_inject_zero_min_range():
    calib = SensorCalibration(np.linspace(-0.4, 0.05, 12), np.linspace(-0.6, 0.6, 32),
                              r_max=10.0, r_min=0.0, sensor_height=2.0)
    grid, labels = raycast_scene(builtin_scene("rehearse-like"), calib, 0.0)
    cdf_values, counts = [], []
    for seed in range(20):
        config = RainConfig(rate=50.0, seed=seed)
        rainy, rlabels = inject_rain(grid, labels, calib, config)
        rained = rlabels.labels == RAIN
        hits = rainy.ranges.reshape(-1)[rained]
        assert ((hits > 0) & (hits < beam_limits(grid, calib)[rained])).all()
        counts.append(rained.sum())
        cdf_values.append(hit_cdf_values(rainy, rlabels, grid, calib, config))
    assert np.mean(counts) == pytest.approx(expected_rained(grid, calib, RainConfig(rate=50.0)),
                                            rel=0.05)
    assert stats.kstest(np.concatenate(cdf_values), "uniform").statistic < 0.03


@pytest.mark.parametrize("elevations, azimuths", [([], [-0.5, 0.0, 0.5]), ([-0.2, 0.0], [])])
def test_beam_field_bounds_of_no_beams_is_the_origin(elevations, azimuths):
    lo, hi = beam_field_bounds(SensorCalibration(elevations, azimuths, r_max=10.0))
    assert lo.tobytes() == hi.tobytes() == np.zeros(3).tobytes()
    assert len(sample_drop_field(RainConfig(rate=50.0), (lo, hi))) == 0


def test_beam_field_bounds_give_the_origin_positive_zeros():
    # the one beam's tip is (10, -0.0, -0.0); the box corners take the origin's +0.0
    lo, hi = beam_field_bounds(SensorCalibration([-0.0], [-0.0], r_max=10.0))
    assert lo.tobytes() == np.zeros(3).tobytes()
    assert hi.tobytes() == np.array([10.0, 0.0, 0.0]).tobytes()


# SHA-256 of the simulation path's outputs below, computed when pinned; see the test.
SIMULATION_PATH_SHA256 = "ae8e8d1e4ad5b2922a15fdae6bd610f046492bdf0ee60a1b717997594b454f25"


def test_simulation_path_outputs_are_pinned():
    """raycast_scene on every builtin scene and five grids, inject_rain at two rates with
    and without occlusion, flatten, project_to_pgm of the returned points and
    cumulative_hazard keep the SHA-256 they had when pinned, dtypes and shapes included:
    a change that moves one output bit fails here."""
    digest = hashlib.sha256()

    def update(*arrays):
        for array in arrays:
            digest.update(f"{array.dtype}{array.shape}".encode())
            digest.update(array.tobytes())

    for v, h, r_max in ((16, 64, 8.0), (32, 128, 15.0), (64, 512, 6.0), (1, 1, 5.0), (3, 1, 4.0)):
        calib = grid_calibration(v, h, r_max=r_max)
        for name in BUILTIN_SCENE_NAMES:
            for noise, seed in ((0.0, 0), (0.01, 1)):
                grid, labels = raycast_scene(builtin_scene(name), calib, noise, seed)
                update(grid.coords, grid.intensity, grid.ranges, grid.unreturned, labels.labels)
                for rate in (10.0, 50.0):
                    for occlude in (True, False):
                        rainy, rlabels = inject_rain(grid, labels, calib,
                                                     RainConfig(rate=rate, seed=seed), occlude)
                        cloud, unreturned = flatten(rainy)
                        returned = PointCloud(cloud.coords[~unreturned],
                                              cloud.intensity[~unreturned])
                        pgm = project_to_pgm(returned, calib)
                        update(rainy.coords, rainy.intensity, rainy.ranges, rainy.unreturned,
                               rlabels.labels, cloud.coords, cloud.intensity, unreturned,
                               pgm.coords, pgm.intensity, pgm.ranges, pgm.unreturned)
    for rate in (10.0, 50.0):
        update(cumulative_hazard(0.5, RainConfig(rate=rate, beam_divergence=3e-3))(
            np.linspace(0.0, 40.0, 81)))
    assert digest.hexdigest() == SIMULATION_PATH_SHA256
