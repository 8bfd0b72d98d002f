"""Golden digests of the shock stream and of one `stress` run.

Every other test compares the library with itself or with an oracle built
from the same numpy, so none of them would see a numpy release change the
bits of a generator or of `standard_normal`. These digests would: if one
moves, the outputs of every seeded run have changed, and the failure names
which digest moved.
"""

import hashlib

import numpy as np

from defi_stress import paths
from defi_stress.cli import main

# sha256 of the first block's shocks, (365, BLOCK_PATHS) little-endian
# float64, collateral then reserve, at seed 42.
FIRST_BLOCK = "a7a491765e724bae23d906835b53df705d07c75dae7c9c9975ee2681a9ae3c42"
# sha256 of `stress` on the bundled baseline config: every output file but
# manifest.json, in name order, each as its name, a NUL and its bytes.
BASELINE_STRESS = "b705240efd2d203d3618ad825c55c9791387ab41d8e35a56caa5112208cf1066"


def first_block_digest() -> str:
    digest = hashlib.sha256()
    z = np.empty((365, paths.BLOCK_PATHS))
    for asset in (paths.COLLATERAL, paths.RESERVE):
        paths._increments(42, asset, range(paths.BLOCK_PATHS), z)
        digest.update(z.astype("<f8").tobytes())
    return digest.hexdigest()


def baseline_stress_digest(data_dir, out) -> str:
    config = data_dir / "baseline_scenario.json"
    assert main(["stress", "--config", str(config), "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_golden_digests(data_dir, tmp_path):
    digests = {
        "FIRST_BLOCK": (first_block_digest(), FIRST_BLOCK),
        "BASELINE_STRESS": (
            baseline_stress_digest(data_dir, tmp_path),
            BASELINE_STRESS,
        ),
    }
    moved = [
        f"{name} moved: {got} (expected {want})"
        for name, (got, want) in digests.items()
        if got != want
    ]
    context = f"numpy {np.__version__}, {paths.RNG_SCHEME}: "
    assert not moved, context + "; ".join(moved)
