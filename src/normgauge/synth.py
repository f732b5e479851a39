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
        if not lo < hi or lo <= 0:
            raise InputError(f"invalid age range {self.age_range}")
        if self.n_regions < 1:
            raise InputError(f"n_regions must be >= 1, got {self.n_regions}")
        if self.noise_sd <= 0:
            raise InputError(f"noise_sd must be positive, got {self.noise_sd}")
        curves = self.curves
        if curves is None:
            curves = default_curves(self.n_regions, self.seed)
        curves = np.asarray(curves, dtype=float)
        if curves.shape != (self.n_regions, 4):
            raise InputError(
                f"curves must have shape ({self.n_regions}, 4), got {curves.shape}"
            )
        object.__setattr__(self, "curves", curves)
        sex = np.broadcast_to(
            np.asarray(self.sex_offsets, dtype=float), (self.n_regions,)
        ).copy()
        object.__setattr__(self, "sex_offsets", sex)
        resolved: dict[str, np.ndarray] = {}
        for label in self.n_per_group:
            raw = self.group_offsets.get(label, 0.0)
            vec = np.broadcast_to(np.asarray(raw, dtype=float), (self.n_regions,)).copy()
            resolved[label] = vec
        for label in self.group_offsets:
            if label not in self.n_per_group:
                raise InputError(f"offset given for unknown group '{label}'")
        object.__setattr__(self, "group_offsets", resolved)

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
        try:
            n_per_group = {str(k): int(v) for k, v in d["n_per_group"].items()}
        except KeyError:
            raise InputError("spec is missing 'n_per_group'") from None
        skew = d.get("noise_skew")
        offsets = {
            str(k): (
                np.asarray(v, dtype=float)
                if isinstance(v, (list, tuple, np.ndarray))
                else float(v)
            )
            for k, v in d.get("group_offsets", {}).items()
        }
        sex_offsets = d.get("sex_offsets", 0.0)
        if isinstance(sex_offsets, (list, tuple, np.ndarray)):
            sex_offsets = np.asarray(sex_offsets, dtype=float)
        curves = d.get("curves")
        return cls(
            n_per_group=n_per_group,
            age_range=tuple(float(v) for v in d.get("age_range", (20.0, 70.0))),
            n_regions=int(d.get("n_regions", 10)),
            curves=np.asarray(curves, dtype=float) if curves is not None else None,
            sex_offsets=sex_offsets,
            group_offsets=offsets,
            noise_sd=float(d.get("noise_sd", 0.25)),
            noise_skew=WarpParams.from_dict(skew) if skew else None,
            seed=int(d.get("seed", 0)),
        )


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
