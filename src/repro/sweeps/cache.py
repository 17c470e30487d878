"""Content-addressed on-disk cache for sweep cell results.

Every cached artifact is keyed by the blake2b digest of the canonical
JSON of its *spec* (the full parameterization of the computation: cell
parameters, trial count, master seed) plus a **code-version salt**.
Identical specs — no matter which driver, shard, or machine submitted
them — map to the same key; perturbing any parameter, or bumping the
package version, changes the key and therefore misses.  The cache is
append-only and the payloads are deterministic, so concurrent shards
writing the same key race benignly (both write identical bytes).

Layout on disk (two-level fan-out keeps directories small)::

    <root>/<key[:2]>/<key>.json     # spec + JSON payload
    <root>/<key[:2]>/<key>.npz      # optional numpy arrays (profiles)

Writes are atomic (temp file + ``os.replace``); unreadable or corrupt
entries degrade to cache misses, never to wrong results — the reader
verifies the stored spec matches the requested one before trusting a
payload.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro._version import __version__
from repro.obs import counter_add

__all__ = [
    "DEFAULT_SALT",
    "PLACEMENT_DIGEST",
    "ResultCache",
    "canonical_json",
    "default_cache_dir",
    "spec_key",
]

#: Bump when the cached payload schema changes shape.
_SCHEMA = 1

#: blake2b of canonical cells' results and single-run loads, asserted by
#: ``tests/sweeps/test_placement_digest.py``.  A change to placement
#: semantics fails that test until this pin is updated, and updating it
#: changes every cache key.
PLACEMENT_DIGEST = "1cd30aa89b9beedbb222d85f05663e83"

#: The code-version salt mixed into every key: results computed by one
#: version or placement semantics of the simulation code are never
#: served to another.
DEFAULT_SALT = f"repro-{__version__}-sweeps{_SCHEMA}-{PLACEMENT_DIGEST}"

#: ``REPRO_SWEEP_CACHE`` values that mean "caching off".
_DISABLED = {"", "0", "off", "none", "disabled"}


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to byte-stable JSON (sorted keys, no spaces).

    Canonical form is what both the content hash and the merged
    :class:`~repro.sweeps.result.SweepResult` artifacts are built from,
    so sharded and unsharded runs of the same grid produce
    byte-identical files.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        allow_nan=False,
    )


def spec_key(spec: Mapping, salt: str = DEFAULT_SALT) -> str:
    """Content address of a spec: blake2b of its canonical JSON + salt.

    Examples
    --------
    >>> spec_key({"n": 256, "d": 2}) == spec_key({"d": 2, "n": 256})
    True
    >>> spec_key({"n": 256, "d": 2}) == spec_key({"n": 256, "d": 3})
    False
    """
    text = canonical_json({"salt": salt, "spec": spec})
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def default_cache_dir() -> Path | None:
    """Resolve the default cache root from the environment.

    ``REPRO_SWEEP_CACHE`` wins when set: a path enables caching there,
    while ``off``/``none``/``0``/empty disables caching entirely
    (returns ``None``).  Unset falls back to the XDG user cache,
    ``$XDG_CACHE_HOME/repro/sweeps`` or ``~/.cache/repro/sweeps``.
    """
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env is not None:
        if env.strip().lower() in _DISABLED:
            return None
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "sweeps"


def _normalize(spec: Mapping) -> dict:
    """JSON round-trip so tuples/ints compare equal to loaded entries."""
    return json.loads(canonical_json(spec))


class ResultCache:
    """A content-addressed result store rooted at one directory.

    Parameters
    ----------
    root:
        Directory holding the cache (created lazily on first ``put``).
    salt:
        Code-version salt mixed into every key; defaults to
        :data:`DEFAULT_SALT`.  Changing the salt invalidates every
        existing entry without touching the files.

    Attributes
    ----------
    hits, misses, stores, corrupt:
        Running counters for this instance (``get`` bumps hits/misses,
        ``put`` bumps stores; ``corrupt`` counts entries that existed
        on disk but failed to parse — they *also* count as misses).
        Mirrored into the process-wide obs metrics
        (``sweep.cache.hit`` / ``.miss`` / ``.store`` / ``.corrupt``,
        see :mod:`repro.obs`) so cache behaviour shows up in trace
        reports without passing the instance around.
    """

    def __init__(self, root: str | os.PathLike, *, salt: str = DEFAULT_SALT):
        self.root = Path(root)
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def key(self, spec: Mapping) -> str:
        """Content address of ``spec`` under this cache's salt."""
        return spec_key(spec, self.salt)

    def _paths(self, key: str) -> tuple[Path, Path]:
        shard = self.root / key[:2]
        return shard / f"{key}.json", shard / f"{key}.npz"

    def __contains__(self, spec: Mapping) -> bool:
        """Entry present on disk?  Does not bump the hit/miss counters."""
        return self._paths(self.key(spec))[0].is_file()

    def path_for(self, spec: Mapping) -> Path:
        """On-disk JSON path a ``spec`` entry lives at (existing or not).

        The ``sweep status`` subcommand reads the modification times of
        finished cells' entries through this to estimate progress/ETA
        without touching the hit/miss counters.
        """
        return self._paths(self.key(spec))[0]

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def get(self, spec: Mapping) -> dict | None:
        """Look up ``spec``; return the stored entry or ``None`` on miss.

        The returned dict has ``"payload"`` (the JSON payload stored by
        :meth:`put`) and ``"arrays"`` (a dict of numpy arrays, empty
        when none were stored).  Corrupt or mismatching entries count
        as misses — the cache never returns data whose recorded spec
        differs from the request.
        """
        key = self.key(spec)
        json_path, npz_path = self._paths(key)
        try:
            text = json_path.read_text()
        except OSError:
            return self._miss()
        try:
            entry = json.loads(text)
        except ValueError:
            return self._miss(corrupt=True)
        if entry.get("salt") != self.salt or entry.get("spec") != _normalize(spec):
            return self._miss()
        arrays: dict[str, np.ndarray] = {}
        if entry.get("has_arrays"):
            try:
                with np.load(npz_path) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            except (OSError, ValueError):
                return self._miss(corrupt=True)
        self.hits += 1
        counter_add("sweep.cache.hit")
        return {"payload": entry["payload"], "arrays": arrays}

    def _miss(self, *, corrupt: bool = False) -> None:
        """Record a miss (optionally a corrupt entry) and return ``None``."""
        self.misses += 1
        counter_add("sweep.cache.miss")
        if corrupt:
            self.corrupt += 1
            counter_add("sweep.cache.corrupt")
        return None

    def put(
        self,
        spec: Mapping,
        payload: Mapping,
        arrays: Mapping[str, np.ndarray] | None = None,
    ) -> Path:
        """Store ``payload`` (JSON-able) and optional numpy ``arrays``.

        Returns the path of the written JSON entry.  Writes are atomic
        per file; re-putting an existing key overwrites with identical
        bytes (payloads are deterministic functions of the spec).
        """
        key = self.key(spec)
        json_path, npz_path = self._paths(key)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        if arrays:
            self._atomic_write(
                npz_path, lambda fh: np.savez_compressed(fh, **dict(arrays))
            )
        entry = {
            "salt": self.salt,
            "spec": _normalize(spec),
            "payload": _normalize(payload),
            "has_arrays": bool(arrays),
        }
        self._atomic_write(
            json_path,
            lambda fh: fh.write((canonical_json(entry) + "\n").encode("utf-8")),
        )
        self.stores += 1
        counter_add("sweep.cache.store")
        return json_path

    @staticmethod
    def _atomic_write(path: Path, write) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Counters snapshot: hits, misses, stores and corrupt entries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }

    def entry_count(self) -> int:
        """Number of JSON entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cache file under the root; returns entries removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*/*"):
            if path.suffix in (".json", ".npz"):
                removed += path.suffix == ".json"
                path.unlink()
        return removed
