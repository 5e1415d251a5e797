"""The package namespace: `curelay` exposes exactly the names its modules
declare in their `__all__`."""

import types

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
