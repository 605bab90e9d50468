"""The ``>>>`` examples in the library's docstrings run and hold; tier-1
collects no ``--doctest-modules``, so they run here."""

import doctest
import importlib
import pkgutil

import kschubert

# Examples in the library at present: three in ``ring``, one in ``rootsys``.
MIN_EXAMPLES = 4


def test_docstring_examples_hold():
    names = ["kschubert"] + [f"kschubert.{m.name}" for m in pkgutil.iter_modules(kschubert.__path__)]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) >= MIN_EXAMPLES
