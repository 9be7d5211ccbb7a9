"""Run manifests: everything needed to reproduce an artifact.

Every CLI artifact run emits a manifest next to its output: the resolved
configuration (and its canonical hash), the RNG seed, the git revision,
library versions, wall and simulated time, and the run's metrics
summary.  A figure or table is then reproducible from its manifest
alone — :func:`manifest_argv` rebuilds the exact CLI invocation, and the
test suite asserts a re-run reproduces the same summary metrics.
"""

from __future__ import annotations

import hashlib
import json
import platform as _platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

MANIFEST_FORMAT = 1

#: config keys that point at output/observability paths — excluded from
#: the config hash and from reconstructed argv, because re-runs write
#: elsewhere without changing *what* is computed
NON_REPRODUCIBLE_KEYS = ("out", "out_dir", "manifest", "trace", "trace_out")


def config_hash(config: Dict[str, object]) -> str:
    """SHA-256 of the canonical JSON form of the reproducible config."""
    reproducible = {
        k: v for k, v in config.items() if k not in NON_REPRODUCIBLE_KEYS
    }
    blob = json.dumps(reproducible, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def git_revision(cwd: str | Path | None = None) -> str:
    """Current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def library_versions() -> Dict[str, str]:
    """Versions of python and the libraries the results depend on."""
    import numpy

    import repro

    return {
        "python": _platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
    }


def build_manifest(
    artifact: str,
    config: Dict[str, object],
    seed: Optional[int] = None,
    outputs: Sequence[str | Path] = (),
    counters: Optional[dict] = None,
    wall_seconds: Optional[float] = None,
    simulated_seconds: Optional[float] = None,
) -> Dict[str, object]:
    """Assemble the manifest dict for one artifact run."""
    return {
        "format": MANIFEST_FORMAT,
        "artifact": artifact,
        "config": dict(config),
        "config_hash": config_hash(config),
        "seed": seed,
        "git_revision": git_revision(Path(__file__).resolve().parent),
        "versions": library_versions(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_seconds": wall_seconds,
        "simulated_seconds": simulated_seconds,
        "outputs": [str(p) for p in outputs],
        "metrics": counters,
    }


def write_manifest(path: str | Path, manifest: Dict[str, object]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


def load_manifest(path: str | Path) -> Dict[str, object]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path}: not a repro run manifest")
    return data


def manifest_argv(manifest: Dict[str, object]) -> List[str]:
    """Rebuild the ``repro-experiments`` argv that reproduces a run.

    Output/observability paths are dropped (see
    :data:`NON_REPRODUCIBLE_KEYS`); append fresh ``--out``/``--trace-out``
    arguments for the re-run's destinations.
    """
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise ValueError("manifest has no config to reproduce from")
    argv: List[str] = [str(manifest["artifact"])]
    for key in sorted(config):
        if key in NON_REPRODUCIBLE_KEYS or key == "artifact":
            continue
        value = config[key]
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif value is not None:
            argv.extend([flag, str(value)])
    return argv


def default_manifest_path(out: str | Path) -> Path:
    """Manifest path conventions: ``<out>.manifest.json`` for a file
    artifact, ``<dir>/manifest.json`` for a directory bundle."""
    out = Path(out)
    if out.is_dir():
        return out / "manifest.json"
    return out.with_name(out.name + ".manifest.json")
