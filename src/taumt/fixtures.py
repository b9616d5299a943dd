"""Access to the packaged data tables.

Tables ship as CSV files under taumt/fixtures.  Every loader takes an
optional directory that overrides it; without one, the environment
variable TAUMT_FIXTURES does, letting tests or users swap in their own
transcriptions.
"""

from __future__ import annotations

import csv
import os
from functools import lru_cache, wraps
from pathlib import Path

ENV_VAR = "TAUMT_FIXTURES"
PACKAGED = Path(__file__).resolve().with_name("fixtures")


def resolve(directory: str | os.PathLike | None = None) -> Path:
    """The fixture directory in use: the argument, else TAUMT_FIXTURES, else the packaged one."""
    return Path(directory or os.environ.get(ENV_VAR) or PACKAGED).resolve()


def cached_per_directory(build):
    """Cache build(directory) by the directory it resolves to.

    The cache is keyed on resolve(directory), so a later override or a
    changed TAUMT_FIXTURES is never answered from another directory's
    entry.  __wrapped__ is build itself, uncached.
    """
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def lookup(directory=None):
        return cached(resolve(directory))

    lookup.cache_clear = cached.cache_clear
    return lookup


def _read_rows(name: str, directory) -> list[list[str]]:
    text = (resolve(directory) / name).read_text(encoding="utf-8")
    rows = []
    for row in csv.reader(text.splitlines()):
        if not row or row[0].lstrip().startswith("#"):
            continue
        rows.append([cell.strip() for cell in row])
    return rows


def load_orbit_table(name: str, directory=None) -> list[tuple[str, int]]:
    """Rows (cusp representative, value) of a boundary-symbol table."""
    return [(r[0], int(r[1])) for r in _read_rows(name, directory)]


def load_divisor_values(name: str, directory=None) -> list[tuple[str, str, int]]:
    """Rows (r, s, value) giving a symbol's value on {r} - {s}."""
    return [(r[0], r[1], int(r[2])) for r in _read_rows(name, directory)]


def load_table1(directory=None) -> list[tuple[str, str, int, int]]:
    """The 55-row appendix table: (r, s, alpha column mod 9, phi9 column mod 9)."""
    return [(r[0], r[1], int(r[2]), int(r[3])) for r in _read_rows("appendix_table1.csv", directory)]


def load_serre_congruences(directory=None) -> list[tuple[int, int, int]]:
    """Rows (modulus, e1, e2) asserting tau(l) = l^e1 + l^e2 mod modulus at primes."""
    return [(int(r[0]), int(r[1]), int(r[2])) for r in _read_rows("serre_congruences.csv", directory)]
