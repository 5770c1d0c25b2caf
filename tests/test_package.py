import inspect
import subprocess
import sys

import smoothcert


def test_all_is_sorted_unique_and_complete():
    names = smoothcert.__all__
    assert list(names) == sorted(set(names))
    for name in names:
        getattr(smoothcert, name)
    public = {n for n, v in vars(smoothcert).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(names)


def test_runtime_imports_without_mpmath():
    # mpmath is a test-only dependency: the package and every module in it,
    # the CLI included, must import with it unavailable
    code = (
        "import pkgutil, sys, importlib\n"
        "sys.modules['mpmath'] = None\n"
        "import smoothcert\n"
        "for m in pkgutil.iter_modules(smoothcert.__path__):\n"
        "    importlib.import_module('smoothcert.' + m.name)\n"
        "assert 'smoothcert.cli' in sys.modules\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
