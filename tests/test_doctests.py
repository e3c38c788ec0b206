import doctest
import importlib
import pkgutil

import sliceguard


def test_doctests():
    attempted = 0
    for info in pkgutil.walk_packages(sliceguard.__path__, "sliceguard."):
        module = importlib.import_module(info.name)
        results = doctest.testmod(module)
        assert results.failed == 0, module.__name__
        attempted += results.attempted
    assert attempted
