"""Synthetic cohorts with known group structure, for calibration and audits.

Each region's response is a cubic curve in age plus a sex offset, a per-group
offset (scalar, or one value per region), and noise:

    y = c0 + c1*a + c2*a^2 + c3*a^3 + sex_offset*[sex == M]
        + group_offset[race] + noise

Noise is Gaussian with a fixed sd; an optional warp skews it while keeping the
latent Gaussian recoverable. Every region draws from its own stream spawned
off the spec seed, so adding regions never perturbs existing ones and
regeneration is bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .cohort import Cohort, CohortSchema
from .errors import InputError
from .warp import WarpParams, warp_inverse


def default_curves(n_regions: int, seed: int) -> np.ndarray:
    """Mild per-region cubic age curves, deterministic in the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9001]))
    curves = np.column_stack(
        [
            rng.uniform(1.0, 4.0, n_regions),
            rng.uniform(-0.03, 0.01, n_regions),
            rng.uniform(-5e-4, 5e-4, n_regions),
            rng.uniform(-5e-6, 5e-6, n_regions),
        ]
    )
    return curves


@dataclass(frozen=True)
class SynthSpec:
    """Complete recipe for one synthetic cohort."""

    n_per_group: Mapping[str, int]
    age_range: tuple[float, float] = (20.0, 70.0)
    n_regions: int = 10
    curves: np.ndarray | None = None
    sex_offsets: np.ndarray | float = 0.0
    group_offsets: Mapping[str, float | np.ndarray] = field(default_factory=dict)
    noise_sd: float = 0.25
    noise_skew: WarpParams | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.n_per_group:
            raise InputError("n_per_group must name at least one group")
        for label, n in self.n_per_group.items():
            if int(n) < 1:
                raise InputError(f"group '{label}' must have n >= 1, got {n}")
        lo, hi = self.age_range
        if not 0 < lo < hi < np.inf:
            raise InputError(f"invalid age range {self.age_range}")
        if self.n_regions < 1:
            raise InputError(f"n_regions must be >= 1, got {self.n_regions}")
        if not 0 < self.noise_sd < np.inf:
            raise InputError(
                f"noise_sd must be positive and finite, got {self.noise_sd}"
            )
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        curves = self.curves
        if curves is None:
            curves = default_curves(self.n_regions, self.seed)
        curves = np.asarray(curves, dtype=float)
        if curves.shape != (self.n_regions, 4):
            raise InputError(
                f"curves must have shape ({self.n_regions}, 4), got {curves.shape}"
            )
        object.__setattr__(self, "curves", curves)
        sex = self._per_region(self.sex_offsets, "sex_offsets")
        object.__setattr__(self, "sex_offsets", sex)
        resolved: dict[str, np.ndarray] = {}
        for label in self.n_per_group:
            raw = self.group_offsets.get(label, 0.0)
            resolved[label] = self._per_region(raw, f"group_offsets['{label}']")
        for label in self.group_offsets:
            if label not in self.n_per_group:
                raise InputError(f"offset given for unknown group '{label}'")
        object.__setattr__(self, "group_offsets", resolved)

    def _per_region(self, value, name: str) -> np.ndarray:
        """A number, or one per region, as one number per region."""
        value = np.asarray(value, dtype=float)
        try:
            return np.broadcast_to(value, (self.n_regions,)).copy()
        except ValueError:
            raise InputError(
                f"{name} must be a number or {self.n_regions} numbers, "
                f"got shape {value.shape}"
            ) from None

    @property
    def region_names(self) -> tuple[str, ...]:
        return tuple(f"region_{d:03d}" for d in range(self.n_regions))

    def to_dict(self) -> dict:
        return {
            "n_per_group": {k: int(v) for k, v in sorted(self.n_per_group.items())},
            "age_range": [float(self.age_range[0]), float(self.age_range[1])],
            "n_regions": int(self.n_regions),
            "curves": self.curves,
            "sex_offsets": self.sex_offsets,
            "group_offsets": {k: self.group_offsets[k] for k in sorted(self.group_offsets)},
            "noise_sd": float(self.noise_sd),
            "noise_skew": self.noise_skew.to_dict() if self.noise_skew else None,
            "seed": int(self.seed),
            "region_names": list(self.region_names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        """The spec of a JSON object; a key it omits takes its default, and
        one that is missing, unknown or malformed raises InputError naming it.
        region_names, which to_dict writes, is derived, so it is read only to
        check that it matches."""
        if "n_per_group" not in d:
            raise InputError("spec is missing 'n_per_group'")
        unknown = sorted(set(d) - set(_SPEC_KEYS) - {"region_names"})
        if unknown:
            raise InputError(f"spec has unknown key(s) {unknown}")
        fields = {}
        for key, parse in _SPEC_KEYS.items():
            if key in d:
                try:
                    fields[key] = parse(d[key])
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise InputError(
                        f"spec key '{key}' is malformed ({type(exc).__name__}: {exc})"
                    ) from None
        spec = cls(**fields)
        if "region_names" in d and d["region_names"] != list(spec.region_names):
            raise InputError("spec key 'region_names' does not match n_regions")
        return spec


def _offsets(value) -> np.ndarray | float:
    """A number, or a list of per-region numbers, as sex_offsets or one
    group's entry of group_offsets."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return np.asarray(value, dtype=float)
    return float(value)


def _count(value) -> int:
    """A JSON integer, as n_per_group's counts, n_regions and seed: a bool, a
    string or a number with a fraction is rejected, not truncated."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _age_range(value) -> tuple[float, float]:
    lo, hi = value
    return float(lo), float(hi)


# each key SynthSpec.from_dict reads, and how its JSON value becomes the field
_SPEC_KEYS = {
    "n_per_group": lambda v: {str(k): _count(n) for k, n in v.items()},
    "age_range": _age_range,
    "n_regions": _count,
    "curves": lambda v: None if v is None else np.asarray(v, dtype=float),
    "sex_offsets": _offsets,
    "group_offsets": lambda v: {str(k): _offsets(x) for k, x in v.items()},
    "noise_sd": float,
    "noise_skew": lambda v: WarpParams.from_dict(v) if v else None,
    "seed": _count,
}


def generate(spec: SynthSpec) -> tuple[Cohort, dict]:
    """Generate the cohort plus a truth dict echoing every resolved parameter."""
    groups = sorted(spec.n_per_group)
    sizes = [int(spec.n_per_group[g]) for g in groups]
    n_total = sum(sizes)
    root = np.random.SeedSequence(spec.seed)
    streams = root.spawn(1 + spec.n_regions)
    demo_rng = np.random.default_rng(streams[0])

    ages = np.concatenate(
        [demo_rng.uniform(spec.age_range[0], spec.age_range[1], n_g) for n_g in sizes]
    )
    # each row's index within its group, which names it and sets its sex
    within = np.concatenate([np.arange(n_g) for n_g in sizes])
    race_arr = np.repeat(groups, sizes)
    is_male = (within % 2).astype(float)
    responses = np.empty((n_total, spec.n_regions))
    for d in range(spec.n_regions):
        rng = np.random.default_rng(streams[1 + d])
        noise = rng.normal(0.0, spec.noise_sd, n_total)
        if spec.noise_skew is not None:
            noise = warp_inverse(noise, spec.noise_skew)
        c0, c1, c2, c3 = spec.curves[d]
        curve = ((c3 * ages + c2) * ages + c1) * ages + c0
        col = curve + spec.sex_offsets[d] * is_male + noise
        for g in groups:
            col = col + np.where(race_arr == g, spec.group_offsets[g][d], 0.0)
        responses[:, d] = col

    schema = CohortSchema(race_labels=tuple(groups))
    cohort = Cohort(
        ids=tuple(f"{g}{i:05d}" for g, i in zip(race_arr.tolist(), within.tolist())),
        ages=ages,
        sexes=tuple("M" if male else "F" for male in is_male.tolist()),
        races=tuple(race_arr.tolist()),
        regions=spec.region_names,
        responses=responses,
        schema=schema,
    )
    return cohort, spec.to_dict()
