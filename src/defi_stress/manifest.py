"""Run outputs in JSON: the strict writer every JSON output goes through, and
the run manifest, enough metadata to reproduce a run bit-for-bit (excluding
its timestamp): config digest, seed, numpy version, path RNG scheme, the
number of paths drawn and liquidated together and the number of days priced
and liquidated together."""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__, paths
from .errors import NumericError


def write_json(path: Path, obj) -> Path:
    """Write obj as indented JSON plus a newline. A NaN or infinity, which
    strict JSON cannot hold, raises NumericError and writes nothing."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path.name}: {exc}") from exc
    path.write_text(text + "\n")
    return path


def config_digest(config_bytes: bytes) -> str:
    return hashlib.sha256(config_bytes).hexdigest()


def write_manifest(
    out_dir: str | Path,
    config_bytes: bytes,
    master_seed: int,
    outputs: list[Path],
) -> Path:
    return write_json(
        Path(out_dir) / "manifest.json",
        {
            "tool_version": __version__,
            "config_digest": config_digest(config_bytes),
            "master_seed": master_seed,
            "created_at": dt.datetime.now(dt.timezone.utc).isoformat(),
            "outputs": sorted(p.name for p in outputs),
            "numpy_version": np.__version__,
            "rng_scheme": paths.RNG_SCHEME,
            "chunk_paths": paths.CHUNK_PATHS,
            "day_block_days": paths.DAY_BLOCK,
        },
    )
