import os
import subprocess
import sys
import types

import hamorbit


def test_all_names_resolve_and_are_not_modules():
    assert hamorbit.__all__
    for name in hamorbit.__all__:
        assert not isinstance(getattr(hamorbit, name), types.ModuleType), name
    assert "NEHARI" not in hamorbit.__all__
    assert "NehariConstraint" not in hamorbit.__all__


def test_cli_imports_without_scipy():
    code = ("import sys, hamorbit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(hamorbit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
