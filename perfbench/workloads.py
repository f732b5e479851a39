"""Benchmark workloads: synthetic cohorts, CLI options and the checks they pass.

`--seed n` shifts both the generator seed and the split seed by n, so seed 0
reproduces the settings below exactly and every other seed gives a new cohort
of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SynthSpec fields except the seed
    synth_seed: int
    split_args: tuple[str, ...]  # fit options that draw the held-out split
    split_seed: int
    covariate_set: str
    contrasts: tuple[str, ...]
    reference_group: str | None  # None: every held-out subject is a reference
    warp_engaged: tuple[int, int] | None  # inclusive range of engaged regions
    z_mean_max: float = 0.1
    z_var_range: tuple[float, float] = (0.85, 1.15)

    def synth_spec(self, seed: int) -> dict:
        return {**self.spec, "seed": self.synth_seed + seed}

    def fit_args(self, seed: int) -> list[str]:
        return [
            *self.split_args,
            "--seed", str(self.split_seed + seed),
            "--covariate-set", self.covariate_set,
        ]


_PAPER_SPEC = {
    "n_per_group": {"A": 1000, "B": 1000, "W": 1000},
    "n_regions": 148,
    "group_offsets": {"A": -0.5, "B": -0.5},
    "noise_sd": 0.25,
}

WORKLOADS = {
    # Criterion-6 setting: the evidence fit dominates and the data are
    # Gaussian, so the warp never engages and every free-warp run is wasted.
    "paper": Workload(
        name="paper",
        spec=_PAPER_SPEC,
        synth_seed=600,
        split_args=("--train-frac", "A=0.01,B=0.01,W=0.93"),
        split_seed=6,
        covariate_set="age,sex",
        contrasts=("W:A", "W:B"),
        reference_group="W",
        warp_engaged=(0, 0),
    ),
    # CSV read/write and scoring over many held-out rows dominate; a null
    # audit, so every held-out subject is a calibration reference.
    "scale": Workload(
        name="scale",
        spec={
            "n_per_group": {"A": 3000, "B": 3000, "W": 14000},
            "n_regions": 148,
            "noise_sd": 0.25,
        },
        synth_seed=9,
        split_args=("--default-train-frac", "0.5"),
        split_seed=9,
        covariate_set="age,sex",
        contrasts=("W:A", "W:B"),
        reference_group=None,
        warp_engaged=None,
    ),
    # Skewed noise engages the warp in most regions, so the free-warp run,
    # the engagement margin and the non-identity warp lie on the result path;
    # the race-included design widens the design and blr layers.
    "skewed": Workload(
        name="skewed",
        spec={
            **_PAPER_SPEC,
            "noise_sd": 0.5,
            "noise_skew": {"epsilon": 0.5, "log_delta": -0.3},
        },
        synth_seed=600,
        split_args=("--train-frac", "A=0.01,B=0.01,W=0.93"),
        split_seed=6,
        covariate_set="age,sex,race",
        contrasts=("W:A", "W:B"),
        reference_group="W",
        warp_engaged=(74, 148),
    ),
    # A few seconds end to end, for the benchmark's own tests.
    "smoke": Workload(
        name="smoke",
        spec={
            "n_per_group": {"A": 60, "B": 60, "W": 120},
            "n_regions": 6,
            "noise_sd": 0.25,
        },
        synth_seed=3,
        split_args=("--default-train-frac", "0.5"),
        split_seed=3,
        covariate_set="age,sex",
        contrasts=("W:A", "W:B"),
        reference_group="W",
        warp_engaged=(0, 0),
        z_mean_max=0.25,
        z_var_range=(0.6, 1.4),
    ),
}
