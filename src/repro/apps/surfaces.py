"""Synthetic application performance surfaces.

A surface assigns every configuration of a search space two numbers:

* ``true_time`` — the interference-free execution time the paper calls the
  configuration's performance in a *dedicated* environment, and
* ``sensitivity`` — how strongly interference inflates that time
  (``observed = true * (1 + sensitivity * level)``).

The construction encodes the three empirical facts of Sec. 2 that every
experiment depends on:

1. **Wide spread, rare optima** (Fig. 1 left).  A few *major* parameters
   have bimodal level effects: a small fraction of their levels are good,
   and a single bad major level alone at least doubles execution time.
   Configurations therefore split into a rare "good cluster" (all majors
   good; a few percent of the space, spanning roughly [1x, 1.9x] of the
   optimum) and a bulk at >= 2x — reproducing the paper's observation that
   more than 93% of configurations run at least twice as long as the best.
2. **Faster is more fragile** (Fig. 2).  Sensitivity grows as the normalised
   quality ``z`` approaches the optimum: highly optimised executions push the
   system near its resource limits.  On top of the trend, every
   configuration carries an idiosyncratic sensitivity factor, so equally
   fast configurations can react very differently to interference.
3. **Rare robust sweet spots** (Fig. 2's blue markers).  A small, *scattered*
   subset of configurations (selected by a deterministic hash of the index,
   so the property has no spatial structure in the parameter lattice) is
   nearly immune to interference.  Because the subset is unstructured, no
   surrogate fitted to solo-run observations can learn where it lies — the
   only way to identify its members is to compare configurations repeatedly
   under shared noise, which is precisely DarwinGame's tournament.

Everything is vectorised over arrays of level matrices (the hot path for the
exhaustive baseline and the oracle scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import CalibrationError, SpaceError
from repro.rng import SeedLike, ensure_rng
from repro.space.space import SearchSpace


# -- inverse normal CDF -------------------------------------------------------
#
# A numpy port of Cephes ``ndtri``, the routine behind scipy.special.ndtri,
# so that importing the package never loads scipy.  Same coefficients, branch
# points and Horner order, so every stored surface and golden stays bit for
# bit what scipy produced.

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# Central branch, |p - 0.5| <= 3/8.
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# Tail, x = sqrt(-2 log p) in [2, 8): p between exp(-2) and exp(-32).
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# Far tail, x >= 8: p below exp(-32).
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef: Tuple[float, ...]) -> np.ndarray:
    """Horner evaluation, highest power first (Cephes ``polevl``).

    The ``_Q`` tables spell out the leading 1.0 that Cephes' ``p1evl``
    implies; ``1.0 * x`` is exact, so the result is the same.
    """
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    # numpy's SIMD log differs from the C library's in the last bit on a
    # few inputs per 100,000; Cephes calls the C library's.
    return np.fromiter(map(math.log, x.tolist()), float, len(x))


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise, for ``0 < p < 1``.

    Bit-identical to ``scipy.special.ndtri`` on that interval.
    """
    p = np.asarray(p, dtype=np.float64)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)

    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI

    tail = ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.empty_like(z)
    near = x < 8.0
    for mask, pcoef, qcoef in ((near, _P1, _Q1), (~near, _P2, _Q2)):
        zm = z[mask]
        x1[mask] = zm * _polevl(zm, pcoef) / _polevl(zm, qcoef)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


@dataclass(frozen=True)
class SurfaceSpec:
    """Tunable constants of a performance surface.

    Attributes:
        t_min / t_max: target execution-time range in seconds (dedicated
            environment), taken from the paper's reported per-app ranges.
        n_major: how many leading parameters carry bimodal (needle) effects.
        major_good_fraction: fraction of a major parameter's levels that are
            good; the rest carry a >= 2x time penalty.
        good_cluster_span: quality span (in z units) of the all-majors-good
            cluster; 0.45 puts the cluster's slowest configurations at about
            1.9x the optimum, just under the paper's 2x threshold.
        minor_skew: exponent < 1 skewing minor-level effects toward "bad".
        n_interactions: number of random pairwise interaction tables.
        interaction_scale: amplitude of interaction effects (fraction of a
            typical minor weight).
        s_lo / s_hi: sensitivity of the slowest / fastest configurations.
        s_exponent: curvature of sensitivity growth toward the optimum.
        idiosyncrasy: log-std of the per-configuration sensitivity factor
            (the unexplained spread of Fig. 2's scatter).
        robust_fraction: fraction of configurations that are nearly immune
            to interference (Fig. 2's blue markers), scattered through the
            space by a deterministic index hash.
        robust_factor: multiplier applied to the sensitivity of robust
            configurations.
        robust_exclusion: configurations with quality ``z`` below this are
            never robust — the very fastest executions push the system to
            its resource limits and stay fragile (Sec. 2), which keeps the
            low-time/low-variation trade-off real: a tuner must give up a
            few percent of dedicated-environment speed to buy stability.
        minor_tie_factor: the second-best level of every minor parameter is
            scaled this close to the best one, creating a plateau of many
            near-optimal (fragile) configurations — the population whose
            lucky quiet-time samples mislead interference-unaware tuners.
    """

    t_min: float
    t_max: float
    n_major: int = 3
    major_good_fraction: float = 0.25
    good_cluster_span: float = 0.45
    minor_skew: float = 0.35
    n_interactions: int = 3
    interaction_scale: float = 0.08
    s_lo: float = 0.12
    s_hi: float = 0.90
    s_exponent: float = 1.3
    idiosyncrasy: float = 0.35
    robust_fraction: float = 0.035
    robust_factor: float = 0.04
    robust_exclusion: float = 0.025
    minor_tie_factor: float = 0.12

    def __post_init__(self) -> None:
        if not 0 < self.t_min < self.t_max:
            raise CalibrationError(
                f"need 0 < t_min < t_max, got ({self.t_min}, {self.t_max})"
            )
        if not 0.0 <= self.robust_factor <= 1.0:
            raise CalibrationError("robust_factor must be in [0, 1]")
        if not 0.0 < self.robust_fraction < 1.0:
            raise CalibrationError("robust_fraction must be in (0, 1)")
        if not 0.0 < self.major_good_fraction < 1.0:
            raise CalibrationError("major_good_fraction must be in (0, 1)")


class PerformanceSurface:
    """Deterministic (seeded) performance model over one search space."""

    def __init__(self, space: SearchSpace, spec: SurfaceSpec, seed: SeedLike) -> None:
        if spec.n_major > space.dimension:
            raise SpaceError(
                f"surface wants {spec.n_major} major parameters but the space "
                f"has only {space.dimension}"
            )
        self.space = space
        self.spec = spec
        rng = ensure_rng(seed)
        cards = space.cardinalities
        self._log_ratio = math.log(spec.t_max / spec.t_min)

        # Minor effects first: their budget defines the z normalisation so
        # that all-majors-good configurations span [0, good_cluster_span].
        minor_tables = {
            j: self._minor_table(int(cards[j]), spec, rng)
            for j in range(spec.n_major, space.dimension)
        }
        self._interactions = self._interaction_tables(space, spec, rng)
        minor_budget = float(
            sum(t.max() for t in minor_tables.values())
            + sum(t.max() for _, _, t in self._interactions)
        )
        if minor_budget <= 0:
            minor_budget = 1.0  # degenerate all-major space
        self._z_norm = minor_budget / spec.good_cluster_span

        # One bad major level alone must at least double execution time.
        major_penalty = math.log(2.0) / self._log_ratio + 0.02
        self._tables: List[np.ndarray] = []
        for j in range(space.dimension):
            if j < spec.n_major:
                self._tables.append(
                    self._major_table(
                        int(cards[j]), spec, rng, major_penalty * self._z_norm
                    )
                )
            else:
                self._tables.append(minor_tables[j])

        # Independent 64-bit salts decorrelate the robustness hash from the
        # idiosyncratic-sensitivity hash.
        self._robust_salt = int(rng.integers(1, 2**63))
        self._idio_salt = int(rng.integers(1, 2**63))

    # -- construction ------------------------------------------------------

    @staticmethod
    def _major_table(
        card: int, spec: SurfaceSpec, rng: np.random.Generator, bad_floor: float
    ) -> np.ndarray:
        """Bimodal effects: good levels near zero, bad levels >= ``bad_floor``.

        ``bad_floor`` is calibrated so a single bad major level at least
        doubles execution time (before z clipping).
        """
        values = bad_floor * (1.0 + 0.7 * rng.random(card))
        n_good = max(1, int(round(spec.major_good_fraction * card)))
        n_good = min(n_good, card)
        good = rng.choice(card, size=n_good, replace=False)
        values[good] = 0.02 * bad_floor * rng.random(n_good)
        values[good[0]] = 0.0
        return values

    @staticmethod
    def _minor_table(card: int, spec: SurfaceSpec, rng: np.random.Generator) -> np.ndarray:
        """Skewed-toward-bad effects, normalised so the best level costs 0.

        The runner-up level is pulled close to the best one so the optimum
        sits on a plateau of near-ties (see :attr:`SurfaceSpec.minor_tie_factor`).
        """
        weight = rng.uniform(0.25, 0.65)
        u = rng.random(card) ** spec.minor_skew
        spread = u.max() - u.min()
        if spread <= 0:  # single-level parameter
            return np.zeros(card)
        table = weight * (u - u.min()) / spread
        order = np.argsort(table, kind="stable")
        if card >= 3:
            table[order[1]] *= spec.minor_tie_factor
        if card >= 4:
            table[order[2]] *= 3.0 * spec.minor_tie_factor
        return table

    def _interaction_tables(
        self, space: SearchSpace, spec: SurfaceSpec, rng: np.random.Generator
    ) -> List[Tuple[int, int, np.ndarray]]:
        """Random pairwise couplings among the minor dimensions."""
        minor_dims = [j for j in range(spec.n_major, space.dimension)]
        out: List[Tuple[int, int, np.ndarray]] = []
        if len(minor_dims) < 2:
            return out
        cards = space.cardinalities
        for _ in range(spec.n_interactions):
            a, b = rng.choice(minor_dims, size=2, replace=False)
            table = spec.interaction_scale * rng.random((int(cards[a]), int(cards[b])))
            out.append((int(a), int(b), table - table.min()))
        return out

    # -- index hashing (structureless pseudo-randomness) --------------------

    @staticmethod
    def _hash_uniform(indices: np.ndarray, salt: int) -> np.ndarray:
        """Deterministic uniform(0,1) per index, with no lattice structure.

        SplitMix64-style integer mixing: adjacent indices map to unrelated
        values, so nothing fitted to parameter levels can predict the output.
        """
        x = (np.asarray(indices, dtype=np.uint64) + np.uint64(salt)).copy()
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return x.astype(np.float64) / float(2**64)

    # -- queries (vectorised over level matrices / index arrays) ------------

    def quality_of_levels(self, levels: np.ndarray) -> np.ndarray:
        """Normalised badness ``z`` in [0, 1]; 0 is the optimum.

        ``z`` is the summed effect budget divided by the good-cluster
        normaliser and clipped at 1 — configurations with two or more bad
        major levels saturate at the worst observed times.
        """
        lv = np.asarray(levels, dtype=np.int64)
        total = np.zeros(lv.shape[0], dtype=float)
        for j, table in enumerate(self._tables):
            total += table[lv[:, j]]
        for a, b, table in self._interactions:
            total += table[lv[:, a], lv[:, b]]
        raw = total / self._z_norm
        # Soft knee above 0.7: stacking several bad major levels approaches
        # the worst time asymptotically instead of saturating in a point
        # mass, giving Fig. 1's gradually rising CDF.  Below the knee (the
        # good cluster and the 2x threshold) z is exactly the raw budget.
        knee, amplitude, tail = 0.7, 0.3, 0.35
        soft = knee + amplitude * (1.0 - np.exp(-(raw - knee) / tail))
        return np.clip(np.where(raw <= knee, raw, soft), 0.0, 1.0)

    def times_of_levels(self, levels: np.ndarray) -> np.ndarray:
        """Interference-free execution time in seconds."""
        z = self.quality_of_levels(levels)
        return self.spec.t_min * np.exp(z * self._log_ratio)

    def robust_mask(self, indices: np.ndarray) -> np.ndarray:
        """True for the scattered, nearly interference-immune configurations.

        Robustness never overlaps the immediate neighbourhood of the optimum
        (``z < robust_exclusion``): maximally optimised executions remain
        fragile, so stability always costs a few percent of speed.
        """
        idx = np.asarray(indices, dtype=np.int64)
        u = self._hash_uniform(idx, self._robust_salt)
        z = self.quality_of_levels(self.space.levels_matrix(idx))
        return (u < self.spec.robust_fraction) & (z >= self.spec.robust_exclusion)

    def sensitivities(self, indices: np.ndarray) -> np.ndarray:
        """Noise sensitivity in [0, 1]: fast configs fragile, robust ones calm.

        ``s = trend(z) * idiosyncratic(c)``, with the robust subset's factor
        collapsed to :attr:`SurfaceSpec.robust_factor`.
        """
        idx = np.asarray(indices, dtype=np.int64)
        z = self.quality_of_levels(self.space.levels_matrix(idx))
        trend = self.spec.s_lo + (self.spec.s_hi - self.spec.s_lo) * (1.0 - z) ** self.spec.s_exponent
        # Inverse-normal transform of a per-index hash gives each
        # configuration a reproducible lognormal idiosyncrasy factor.
        u = np.clip(self._hash_uniform(idx, self._idio_salt), 1e-9, 1.0 - 1e-9)
        idio = np.exp(self.spec.idiosyncrasy * _ndtri(u))
        s = trend * idio
        s = np.where(self.robust_mask(idx), trend * self.spec.robust_factor, s)
        return np.clip(s, 0.0, 1.0)


def sample_surface_stats(
    surface: PerformanceSurface, n: int = 4000, seed: SeedLike = 0
) -> dict:
    """Summary statistics of a surface over a random sample (for calibration)."""
    indices = surface.space.sample_indices(n, seed)
    levels = surface.space.levels_matrix(indices)
    times = surface.times_of_levels(levels)
    sens = surface.sensitivities(indices)
    robust = surface.robust_mask(indices)
    best = float(times.min())
    return {
        "time_min": best,
        "time_max": float(times.max()),
        "time_mean": float(times.mean()),
        "spread_ratio": float(times.max() / best),
        "fraction_within_2x": float(np.mean(times < 2.0 * best)),
        "sensitivity_mean": float(sens.mean()),
        "robust_fraction": float(robust.mean()),
        "sample_size": int(n),
    }
