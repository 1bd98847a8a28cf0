"""Location of the on-disk Stirling triangle file.

The cache directory comes from the BERNOCCHI_CACHE_DIR environment
variable when set, otherwise from the platform cache convention
(XDG_CACHE_HOME, falling back to ~/.cache).  `cache build` writes the file
for export and inspection; commands compute the rows they need in memory
and never read it, since validating a loaded file costs as much as
building its rows.
"""
from __future__ import annotations

import os
from pathlib import Path

__all__ = ["ENV_CACHE_DIR", "cache_dir", "cache_file"]

ENV_CACHE_DIR = "BERNOCCHI_CACHE_DIR"
_CACHE_FILENAME = "stirling2.txt"


def cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "bernocchi"


def cache_file() -> Path:
    return cache_dir() / _CACHE_FILENAME

