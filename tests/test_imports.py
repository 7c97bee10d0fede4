import os
import subprocess
import sys

import zeroflow


def test_import_loads_neither_scipy_nor_mpmath():
    # both are heavy imports that every command and benchmark would pay for
    src = os.path.dirname(os.path.dirname(zeroflow.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys, zeroflow\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks star imports
    missing = [name for name in zeroflow.__all__ if not hasattr(zeroflow, name)]
    assert missing == []
    namespace = {}
    exec("from zeroflow import *", namespace)
    assert set(zeroflow.__all__) <= set(namespace)
