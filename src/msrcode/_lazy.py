"""numpy, imported on first use.

Only the batch paths (encode, decode, repair and the shard I/O under them)
touch numpy; the scalar commands (init, verify, stats) never do, so they
need not pay its import.  `np` is a module object registered under "numpy"
whose code runs on its first attribute access: the importlib.util.LazyLoader
recipe of the Python documentation.  An "import numpy" elsewhere in the
process, before or after, yields the same module.
"""

from __future__ import annotations

import importlib.util
import sys
import types


def lazy_import(name: str) -> types.ModuleType:
    """The module `name`, executed when one of its attributes is first read.
    Raises ModuleNotFoundError now, as `import` would, if it is not
    installed."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_import("numpy")
