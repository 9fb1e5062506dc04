"""Marshall-Palmer rain injection on the polar beam grid, sampled per beam.

Raindrops form a Poisson field whose diameters follow the truncated
exponential drop-size distribution n(D) = n0 * exp(-lambda * D) on
[d_min, d_max], lambda = 4.1 * rate^-0.21 (Marshall & Palmer, 1948). A beam of
half-angle theta hits a drop of radius R = D/2000 m centred within
R + t*tan(theta) of its axis at range t, so the drops hitting one beam form a
Poisson process in range with cumulative hazard from r_min

    Lambda(t) = pi * [M2*(t - r_min) + M1*tan(theta)*(t^2 - r_min^2)
                      + M0*tan(theta)^2*(t^3 - r_min^3)/3],

where M_p is the integral of n(D) * (D/2000)^p over [d_min, d_max].
cumulative_hazard(r_min, config) returns this Lambda as a function of range. The
injector samples each beam's first hit directly from Lambda (inverse-transform
sampling, as per-beam particle sampling in Hahner et al., "LiDAR Snowfall
Simulation for Robust 3D Object Detection", CVPR 2022), so its cost is
O(V*H) whatever r_max is.

Each beam's hit range is distributed exactly as in the drop-field model, also
where neighbouring beam cones overlap. What the per-beam model gives up is
one drop hitting two neighbouring beams: hits on different beams are
independent. sample_drop_field, the DropField it returns and intersect_beam
keep the explicit drop-field model as the reference that the per-beam
sampler is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RAIN, LabelSet, SensorCalibration, check_seed
from .errors import (
    DegenerateBoundsError,
    InvalidInputError,
    NonPositiveRateError,
    TooLargeError,
)
from .pgm import PolarGridMap, beam_directions

MP_N0_DEFAULT = 8000.0  # m^-3 mm^-1


@dataclass(frozen=True)
class RainConfig:
    """Rain field parameters.

    rate is in mm/h, positive and finite; d_min/d_max bound drop diameters in
    mm; n0 is the drop-size-distribution intercept in m^-3 mm^-1, positive and
    finite; beam_divergence is the beam half-angle in [0, pi/2) radians;
    rain_reflectance is the intensity in [0, 1] written for rain returns;
    seed is an integer in [0, 2**128), the key of the Philox generator.
    """

    rate: float
    d_min: float = 0.5
    d_max: float = 6.0
    n0: float = MP_N0_DEFAULT
    beam_divergence: float = 1e-3
    rain_reflectance: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not self.rate > 0:
            raise NonPositiveRateError("rain rate must be positive")
        if not (self.rate < math.inf and 0 < self.n0 < math.inf):
            raise InvalidInputError("rate must be finite, n0 positive and finite")
        if not 0 < self.d_min < self.d_max < math.inf:
            raise InvalidInputError("need 0 < d_min < d_max, d_max finite")
        if not 0 <= self.beam_divergence < math.pi / 2:
            raise InvalidInputError("beam_divergence must lie in [0, pi/2)")
        if not 0 <= self.rain_reflectance <= 1:
            raise InvalidInputError("rain_reflectance must lie in [0, 1]")
        check_seed(self.seed)


class DropField:
    """Vectorized collection of raindrops: one row of centers and diameters per drop."""

    def __init__(self, centers: np.ndarray, diameters: np.ndarray):
        self.centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        self.diameters = np.asarray(diameters, dtype=np.float64).reshape(-1)

    def __len__(self) -> int:
        return self.centers.shape[0]


def marshall_palmer_lambda(rate: float):
    """Drop-size-distribution slope in mm^-1: 4.1 * rate^-0.21."""
    if not rate > 0:
        raise NonPositiveRateError("rain rate must be positive")
    return 4.1 * rate ** -0.21


def drop_moments(config: RainConfig) -> tuple[float, float, float]:
    """M_p = integral of n0 exp(-lambda D) (D/2000)^p over [d_min, d_max], p = 0, 1, 2.

    M0 is drops per cubic meter; M1 and M2 weight each drop by its radius in m
    and its squared radius in m^2. Closed form from the antiderivative of
    D^p exp(-lambda D): -exp(-lambda D)/lambda * (D^p + p D^(p-1)/lambda + ...).
    """
    lam = marshall_palmer_lambda(config.rate)

    def antiderivative(d):
        scale = -math.exp(-lam * d) / lam
        return scale, scale * (d + 1 / lam), scale * (d * d + 2 * d / lam + 2 / lam ** 2)

    lo, hi = antiderivative(config.d_min), antiderivative(config.d_max)
    return tuple(config.n0 * (b - a) / 2000.0 ** p for p, (a, b) in enumerate(zip(lo, hi)))


def expected_drop_concentration(config: RainConfig) -> float:
    """Drops per cubic meter: integral of n0 exp(-lambda D) over [d_min, d_max]."""
    return drop_moments(config)[0]


def cumulative_hazard(r_min: float, config: RainConfig):
    """Lambda of the module docstring as a function of range, the same for every beam:
    the expected number of drops hitting one beam between r_min and each range. Its
    coefficients are computed once, here."""
    m0, m1, m2 = drop_moments(config)
    tan = math.tan(config.beam_divergence)
    a, b = m0 * tan * tan / 3, m1 * tan

    def from_origin(t):  # hazard accumulated from range 0, in Horner form
        return math.pi * t * (m2 + t * (b + t * a))

    at_r_min = from_origin(r_min)
    return lambda ranges: from_origin(np.asarray(ranges, dtype=np.float64)) - at_r_min


def diameter_cdf(diameters, config: RainConfig):
    """CDF of the truncated exponential diameter distribution on [d_min, d_max]."""
    lam = marshall_palmer_lambda(config.rate)
    d = np.clip(np.asarray(diameters, dtype=np.float64), config.d_min, config.d_max)
    lo = np.exp(-lam * config.d_min)
    hi = np.exp(-lam * config.d_max)
    return (lo - np.exp(-lam * d)) / (lo - hi)


def sample_drop_field(config: RainConfig, bounds) -> DropField:
    """Poisson-sample raindrops uniformly inside an axis-aligned box.

    bounds is a (min_corner, max_corner) pair in meters, both corners finite
    and max >= min on each axis (else DegenerateBoundsError). Drop count is
    Poisson(concentration * volume), a box whose count numpy cannot draw is a
    TooLargeError; diameters come from the truncated exponential via inverse
    CDF. Fully determined by config.seed.

    Bit-identical to drawing ``rng.uniform(lo, hi, (count, 3))`` and
    ``rng.uniform(0, 1, count)`` and then ``-np.log(e_lo - u * (e_lo - e_hi)) / lam``:
    ``Generator.uniform`` computes ``lo + (hi - lo) * rng.random()``, done here in place.
    """
    lo = np.asarray(bounds[0], dtype=np.float64).reshape(3)
    hi = np.asarray(bounds[1], dtype=np.float64).reshape(3)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (hi >= lo).all()):
        raise DegenerateBoundsError("bounds need finite corners, max corner >= min corner")
    # np.prod's left-to-right product, on Python floats: overflow gives inf, not a warning.
    volume = math.prod(b - a for a, b in zip(lo.tolist(), hi.tolist()))
    rng = np.random.default_rng(config.seed)
    try:
        count = int(rng.poisson(expected_drop_concentration(config) * volume))
    except ValueError as exc:  # an expected count of inf, nan or past numpy's largest draw
        raise TooLargeError(f"cannot draw a drop count for a box of volume {volume} m^3") from exc
    centers = rng.random((count, 3))
    centers *= hi - lo
    centers += lo
    lam = marshall_palmer_lambda(config.rate)
    e_lo = np.exp(-lam * config.d_min)
    e_hi = np.exp(-lam * config.d_max)
    diameters = rng.random(count)
    diameters *= e_lo - e_hi
    np.subtract(e_lo, diameters, out=diameters)
    np.log(diameters, out=diameters)
    diameters /= -lam
    return DropField(centers, diameters)


def intersect_beam(origin, direction, center, diameter: float, divergence: float):
    """Range at which a (possibly diverging) beam hits one drop, or None.

    The drop has its center in m and its diameter in mm, one row of a
    ``DropField``. The beam hits if the center projects forward of the origin
    and its perpendicular distance to the ray is within the drop radius plus
    the beam footprint t * tan(divergence). This is the drop-by-drop oracle of
    the per-beam injector.
    """
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    direction = np.asarray(direction, dtype=np.float64).reshape(3)
    rel = np.asarray(center, dtype=np.float64).reshape(3) - origin
    t = float(rel @ direction)
    if t <= 0:
        return None
    perp = np.linalg.norm(rel - t * direction)
    radius_m = diameter / 2000.0  # mm diameter -> m radius
    if perp <= radius_m + t * np.tan(divergence):
        return t
    return None


def beam_field_bounds(calib: SensorCalibration) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box covering the sensor origin and all beam tips at r_max; a
    calibration with no beams gives the zero box at the origin."""
    tips = beam_directions(calib).reshape(-1, 3) * calib.r_max
    lo = np.minimum(tips.min(axis=0, initial=np.inf), 0.0)
    hi = np.maximum(tips.max(axis=0, initial=-np.inf), 0.0)
    return lo, hi


def inject_rain(
    pgm: PolarGridMap,
    labels: LabelSet,
    calib: SensorCalibration,
    config: RainConfig,
    occlude_returns: bool = True,
) -> tuple[PolarGridMap, LabelSet]:
    """Inject the first raindrop hit of every beam into a scan.

    Each beam draws one E ~ Exp(1) from a Philox stream keyed by config.seed,
    in row-major beam order. The beam is rained when E < Lambda(L), where L is
    its existing return range (r_max for unreturned beams, and no range at all
    for returned beams when occlude_returns=False); its rain return then lies
    at the range t in [r_min, L) solving Lambda(t) = E. A rain return gets
    label 2 (rain), rain_reflectance intensity and coordinates on the beam
    axis; every other cell is copied unchanged. Deterministic for fixed inputs.
    """
    cells = pgm.ranges.size
    labels.check_count(cells, "grid cells")

    limits = np.where(pgm.unreturned, calib.r_max, pgm.ranges if occlude_returns else -np.inf)
    limits = np.maximum(limits.reshape(-1), calib.r_min)
    draws = np.random.Generator(np.random.Philox(key=config.seed)).standard_exponential(cells)
    hazard = cumulative_hazard(calib.r_min, config)
    idx = np.flatnonzero(draws < hazard(limits))

    # Lambda is increasing, so bisection keeps Lambda(lo) <= E < Lambda(hi);
    # 60 halvings shrink [r_min, L) below double precision.
    target = draws[idx]
    lo = np.full(idx.size, float(calib.r_min))
    hi = limits[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = hazard(mid) <= target
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=~below)

    new_coords = pgm.coords.copy()
    new_intensity = pgm.intensity.copy()
    new_ranges = pgm.ranges.copy()
    new_unreturned = pgm.unreturned.copy()
    new_labels = labels.labels.copy()
    new_coords.reshape(-1, 3)[idx] = beam_directions(calib).reshape(-1, 3)[idx] * lo[:, None]
    new_intensity.reshape(-1)[idx] = config.rain_reflectance
    new_ranges.reshape(-1)[idx] = lo
    new_unreturned.reshape(-1)[idx] = False
    new_labels[idx] = RAIN
    return (
        PolarGridMap(new_coords, new_intensity, new_ranges, new_unreturned),
        LabelSet(new_labels),
    )
