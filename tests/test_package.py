import inspect

import smoothcert


def test_all_is_sorted_unique_and_complete():
    names = smoothcert.__all__
    assert list(names) == sorted(set(names))
    for name in names:
        getattr(smoothcert, name)
    public = {n for n, v in vars(smoothcert).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(names)
