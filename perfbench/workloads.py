"""Benchmark workloads: planted-motif UCR text files made from a seed.

Class "1" carries a rectangular bump and class "2" a V-shaped dip, each
at a random offset that keeps the whole motif inside the series, on top
of Gaussian noise. The generator is the benchmark's own, so the inputs
stay fixed when the program's synthetic generator changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MOTIF_LENGTH = 16
AMPLITUDE = 3.0
NOISE_SIGMA = 0.1


@dataclass(frozen=True)
class Workload:
    """One input make-up plus the `ps2c run` settings it is run with."""

    name: str
    n_per_class: int  # per split: train and test each hold 2 * n_per_class series
    min_length: int
    max_length: int
    s_min: float
    alphas: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    omegas: tuple[int, ...] = (2, 3, 4, 5, 6)
    l_max: int = 20
    tau: float = 0.5
    k: int = 4
    program_seed: int = 0

    @property
    def n_cells(self) -> int:
        return len(self.alphas) * len(self.omegas)

    def run_flags(self) -> list[str]:
        """`ps2c run` flags, with every setting spelled out."""
        return [
            "--alphas", ",".join(map(str, self.alphas)),
            "--omegas", ",".join(map(str, self.omegas)),
            "--lmax", str(self.l_max),
            "--smin", repr(self.s_min),
            "--tau", repr(self.tau),
            "--k", str(self.k),
            "--seed", str(self.program_seed),
            "--resamples", "1",
        ]


# Sizes are scaled down from the ROADMAP baseline (400 + 400 series) so
# that one measured run holds five or more `ps2c run` samples per thread count.
WORKLOADS = {
    w.name: w
    for w in (
        # equal lengths: the FFT distance path; the index build leads
        Workload("planted-equal", n_per_class=40, min_length=256, max_length=256, s_min=0.05),
        # ragged lengths: the per-pair Python distance loop leads
        Workload("planted-ragged", n_per_class=30, min_length=200, max_length=255, s_min=0.05),
    )
}


def _split(workload: Workload, rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    m = MOTIF_LENGTH
    bump = np.full(m, AMPLITUDE)
    vee = AMPLITUDE * (np.abs(np.linspace(-1.0, 1.0, m)) - 1.0)
    rows = []
    for label, motif in (("1", bump), ("2", vee)):
        for _ in range(workload.n_per_class):
            n = int(rng.integers(workload.min_length, workload.max_length + 1))
            x = rng.normal(0.0, NOISE_SIGMA, size=n)
            start = int(rng.integers(0, n - m + 1))
            x[start : start + m] += motif
            rows.append((label, x))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write TRAIN.txt and TEST.txt (comma-separated UCR rows) for one seed."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for part, child in zip(("TRAIN", "TEST"), np.random.SeedSequence(seed).spawn(2)):
        rows = _split(workload, np.random.default_rng(child))
        path = directory / f"{part}.txt"
        path.write_text(
            "".join(",".join([label] + [f"{v:.6f}" for v in x]) + "\n" for label, x in rows)
        )
        paths.append(path)
    return paths[0], paths[1]
