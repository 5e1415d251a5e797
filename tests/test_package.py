"""The package namespace: `curelay` exposes exactly the names its modules
declare in their `__all__`."""

import concurrent.futures
import subprocess
import sys
import types
from pathlib import Path

import curelay
from curelay import analysis, channels, expcli, mathkernel, power, relaying

MODULES = (mathkernel, channels, power, relaying, analysis, expcli)


def test_public_names_are_the_modules_all():
    declared = {name for module in MODULES for name in module.__all__}
    public = {name for name in dir(curelay) if not name.startswith("_")
              and not isinstance(getattr(curelay, name), types.ModuleType)}
    assert public == declared
    for module in MODULES:
        for name in module.__all__:
            assert getattr(curelay, name) is getattr(module, name)


def test_config_error_is_the_one_load_config_raises():
    assert curelay.ConfigError is curelay.expcli.ConfigError


def test_import_and_load_config_start_no_pool_module():
    # the pool module (and multiprocessing with it) is imported when a sweep
    # first starts a pool, and the module attribute is then the real class;
    # numpy is the one top-level module outside the standard library loaded,
    # and numpy.random (about 10 ms and 5.5 MiB) waits for the first draw
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import curelay; from curelay.expcli import load_config; load_config(sys.argv[2]); "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process', 'numpy.random') "
            "if m in sys.modules]); "
            "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before} "
            "- set(sys.stdlib_module_names))); import concurrent.futures; "
            "print(curelay.analysis.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)")
    r = subprocess.run([sys.executable, "-c", code, str(root / "src"),
                        str(root / "configs" / "default.cfg")],
                       capture_output=True, text=True, check=True)
    assert r.stdout.splitlines() == ["[]", "['curelay', 'numpy']", "True"]
    assert analysis.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert not hasattr(analysis, "ThreadPoolExecutor")
