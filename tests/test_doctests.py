import doctest

import orbimirror.acohomology
import orbimirror.aquantum
import orbimirror.bside
import orbimirror.cli
import orbimirror.combinatorics
import orbimirror.mirror
import orbimirror.wdvv


def test_module_doctests():
    for module in (
        orbimirror.combinatorics,
        orbimirror.acohomology,
        orbimirror.aquantum,
        orbimirror.bside,
        orbimirror.cli,
        orbimirror.mirror,
        orbimirror.wdvv,
    ):
        result = doctest.testmod(module, verbose=False)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__
