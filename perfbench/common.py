"""Settings and helpers shared by the benchmark's parent and prepare processes."""

from __future__ import annotations

import os
import resource
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREADS = 1  # one closed-loop caller; a single BLAS thread keeps runs steady
NOISE_FACTOR = 0.0  # the acceptance / README configuration


@dataclass(frozen=True)
class Scale:
    """Size of the generated inputs.  See README.md for why these values."""

    floor_m: float
    queries_per_point: int
    vocab_k: int
    vocab_iters: int

    def generation_params(self):
        from pointloc.dataset import GenerationParams
        from pointloc.scene import SceneParams

        return GenerationParams(
            queries_per_point=self.queries_per_point,
            noise_factor=NOISE_FACTOR,
            scene=SceneParams(floor_width=self.floor_m, floor_depth=self.floor_m),
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "noise_factor": NOISE_FACTOR}


REFERENCE = Scale(floor_m=10.0, queries_per_point=13, vocab_k=256, vocab_iters=8)
TINY = Scale(floor_m=6.0, queries_per_point=2, vocab_k=16, vocab_iters=2)


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_sources() -> None:
    """Import pointloc from this checkout's src/, never from an installed copy."""
    if not (SRC / "pointloc" / "__init__.py").is_file():
        raise SystemExit(f"error: no pointloc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pointloc

    if Path(pointloc.__file__).resolve().parent != SRC / "pointloc":
        raise SystemExit(f"error: pointloc imported from {pointloc.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))
