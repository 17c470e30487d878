"""Registry semantics: selection order, errors, graceful fallback."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import kernels
from repro.kernels import (
    BACKEND_NAMES,
    KernelBackend,
    available_backends,
    default_backend,
    get_backend,
    resolve_backend,
)


def accelerated_backends() -> list[str]:
    """Names of the accelerated backends usable on this machine."""
    return [
        name for name, ok in available_backends().items()
        if ok and name != "numpy"
    ]


def test_numpy_backend_always_available():
    backend = get_backend("numpy")
    assert backend.name == "numpy"
    assert not backend.is_accelerated
    assert backend.place_block is None
    assert backend.dynamic_window is None
    assert backend.ring_assign is None


def test_unknown_name_raises_value_error():
    with pytest.raises(ValueError, match="unknown kernel backend 'bogus'"):
        get_backend("bogus")


def test_unknown_name_lists_valid_choices():
    with pytest.raises(ValueError) as excinfo:
        get_backend("fortran")
    message = str(excinfo.value)
    for name in BACKEND_NAMES + ("auto",):
        assert name in message
    assert "REPRO_KERNEL_BACKEND" in message


def test_numba_is_an_unknown_backend(monkeypatch):
    """The removed numba backend is rejected like any unknown name."""
    with pytest.raises(ValueError, match="unknown kernel backend 'numba'"):
        get_backend("numba")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend(None)


def test_bogus_env_var_raises_clear_error(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend(None)


def test_bogus_env_var_fails_at_engine_level(monkeypatch):
    """A typo'd env var must fail loudly, not silently fall back."""
    from repro.core.multitrial import run_fused
    from repro.core.ring import RingSpace
    from repro.core.strategies import TieBreak

    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
    spaces = [RingSpace.random(32, seed=0)]
    with pytest.raises(ValueError, match="unknown kernel backend"):
        run_fused(spaces, 8, 2, TieBreak.RANDOM, [np.random.default_rng(0)])


def test_env_var_overrides_kwarg(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    resolved = resolve_backend("cext")
    assert resolved.name == "numpy"


def test_kwarg_accepts_backend_instance():
    sentinel = KernelBackend("numpy")
    assert resolve_backend(sentinel) is sentinel


def test_kwarg_accepts_name():
    assert resolve_backend("numpy").name == "numpy"


def test_default_backend_matches_resolve_none():
    assert default_backend() is resolve_backend(None)


def test_available_backends_reports_numpy_true():
    avail = available_backends()
    assert avail["numpy"] is True
    assert set(avail) == set(BACKEND_NAMES)


def test_explicit_unavailable_backend_raises_runtime_error(
    reset_registry, monkeypatch
):
    """Asking for a backend that cannot build is an error, not a fallback."""

    def boom():
        raise RuntimeError("kernel backend 'cext' unavailable: no C compiler")

    import repro.kernels.cext_backend as cext_backend

    monkeypatch.setattr(cext_backend, "build_backend", boom)
    with pytest.raises(RuntimeError, match="unavailable"):
        get_backend("cext")


def test_auto_falls_back_silently_when_accelerators_missing(
    reset_registry, monkeypatch
):
    """No accelerated backend ⇒ auto resolves to numpy with no warnings."""

    def boom():
        raise RuntimeError("unavailable")

    import repro.kernels.cext_backend as cext_backend

    monkeypatch.setattr(cext_backend, "build_backend", boom)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        backend = get_backend("auto")
    assert backend.name == "numpy"


def test_auto_prefers_accelerated_backend(reset_registry):
    accelerated = accelerated_backends()
    backend = get_backend("auto")
    if accelerated:
        assert backend.is_accelerated
        assert backend.name == accelerated[0] or backend.name in accelerated
    else:
        assert backend.name == "numpy"


def test_failed_build_is_cached(reset_registry, monkeypatch):
    """The (possibly expensive) probe of a broken backend runs once."""
    calls = []

    def boom():
        calls.append(1)
        raise RuntimeError("unavailable")

    import repro.kernels.cext_backend as cext_backend

    monkeypatch.setattr(cext_backend, "build_backend", boom)
    for _ in range(3):
        with pytest.raises(RuntimeError):
            get_backend("cext")
    assert len(calls) == 1


def test_import_repro_does_not_compile():
    """Cold ``import repro`` must not pay for any accelerator."""
    import subprocess
    import sys

    code = (
        "import sys; import repro; "
        "assert 'repro.kernels.cext_backend' not in sys.modules"
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True
    )


def test_import_workload_modules_does_not_import_scipy():
    """The placement, serving, overlay and dynamics layers never need
    scipy at import: the KD-tree and Voronoi code load it on first use."""
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import repro.sweeps.runner, repro.serve, repro.net, repro.dynamics\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
