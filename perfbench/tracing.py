"""Per-layer spans and counters for the traced benchmark run.

The library has no instrumentation of its own, so the traced run wraps the
public functions of each layer from outside ``src/``.  A wrapper is installed
on every module binding of a traced name, not only on the defining module:
``ring`` imports ``matvec`` from ``rootsys``, ``constants`` imports the
nilHecke rows, and ``nilhecke`` and ``constants`` import the Weyl helpers.
Recursion and cross-module calls therefore pass through the spans too.

Each span records its duration; a layer's self time is that duration minus
the part covered by traced child spans, and its inclusive time counts only
the outermost frame of a recursion.  For ``lru_cache`` memos the miss count
is the delta of ``cache_info()`` while the tracer was installed, and the
final ``currsize`` of every memo in the package is reported as well.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, defining module, attribute path, extra counter)
TARGETS = (
    ("rootsys.matvec", "kschubert.rootsys", "matvec", None),
    ("rootsys.matmul", "kschubert.rootsys", "matmul", None),
    ("rootsys.build_root_system", "kschubert.rootsys", "build_root_system", None),
    # The construction, not the memo lookup that every aff_multiply performs.
    ("weyl.weyl_group", "kschubert.weyl", "WeylGroup.__init__", None),
    ("weyl.aff_multiply", "kschubert.weyl", "aff_multiply", None),
    ("weyl.length", "kschubert.weyl", "length", None),
    ("weyl.reduced_word", "kschubert.weyl", "reduced_word", None),
    ("weyl.coset_min", "kschubert.weyl", "coset_min", None),
    ("weyl.lower_interval", "kschubert.weyl", "lower_interval", None),
    ("ring.gae_mul", "kschubert.ring", "GroupAlgebraElement.__mul__", "term_products"),
    ("ring.gae_act", "kschubert.ring", "GroupAlgebraElement.act", None),
    ("ring.rf_reduce", "kschubert.ring", "RationalFunction._reduce", None),
    ("ring.divide_one_minus_exp", "kschubert.ring", "divide_one_minus_exp", None),
    ("ring.rf_mul", "kschubert.ring", "RationalFunction.__mul__", None),
    ("ring.rf_add", "kschubert.ring", "RationalFunction.__add__", None),
    ("nilhecke.e_row", "kschubert.nilhecke", "e_row", "entries_built"),
    ("nilhecke.e_cosets", "kschubert.nilhecke", "e_cosets", None),
    ("nilhecke.y_in_loc", "kschubert.nilhecke", "y_in_loc", None),
    ("nilhecke.b_cosets", "kschubert.nilhecke", "b_cosets", None),
    ("nilhecke.t_in_loc", "kschubert.nilhecke", "t_in_loc", None),
    ("nilhecke.k_class", "kschubert.nilhecke", "k_class", None),
    ("nilhecke.l_class", "kschubert.nilhecke", "l_class", None),
    ("nilhecke.basis_convert", "kschubert.nilhecke", "basis_convert", None),
    ("nilhecke.kappa", "kschubert.nilhecke", "kappa", None),
    ("constants.pontryagin_constants", "kschubert.constants", "pontryagin_constants", None),
    ("constants.convolution", "kschubert.constants", "_translation_convolution", None),
    ("constants.conjecture_check", "kschubert.constants", "conjecture_check", None),
    ("constants.classical_k_constants", "kschubert.constants", "classical_k_constants", None),
    ("constants.verify_embedded_tables", "kschubert.constants", "verify_embedded_tables", None),
    ("cli.main", "kschubert.cli", "main", None),
)


class _Stat:
    __slots__ = ("calls", "self_s", "inclusive_s", "depth", "kind", "extra", "misses0")

    def __init__(self, kind):
        self.kind = kind
        self.calls = 0
        self.self_s = 0.0
        self.inclusive_s = 0.0
        self.depth = 0
        self.extra = 0
        self.misses0 = None


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "kschubert" or name.startswith("kschubert."))
    ]


def _term_products(args) -> int:
    """Sum of |a|*|b| over GroupAlgebraElement products; an int factor is a
    single constant term, and an operand the method declines counts zero."""
    a, b = args[0], args[1]
    if isinstance(b, int):
        return len(a.terms)
    if isinstance(b, type(a)):
        return len(a.terms) * len(b.terms)
    return 0


class Tracer:
    """Installs the span wrappers; ``snapshot`` reads the metrics and
    ``uninstall`` restores every binding it replaced."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.cached: dict[str, object] = {}
        self.memos: dict[str, object] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._stack = [0.0]

    def install(self) -> None:
        modules = _package_modules()
        self.memos = {
            name: obj
            for module in modules
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__
        }
        for prefix, module_name, path, extra in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(prefix)
                continue
            stat = self.stats[prefix] = _Stat(extra)
            if hasattr(original, "cache_info"):
                self.cached[prefix] = original
                stat.misses0 = original.cache_info().misses
            wrapper = self._wrap(original, stat)
            if owner_name:
                self._rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapper)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, stat: _Stat):
        stack = self._stack
        extra = stat.kind
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            if extra == "term_products":
                stat.extra += _term_products(args)
            elif extra == "entries_built":
                misses = cache_info().misses
            stack.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += duration - stack.pop()
                stack[-1] += duration
                if not stat.depth:
                    stat.inclusive_s += duration
            # lru_cache counts a miss before calling the function and a hit
            # makes no nested calls, so a grown miss count means this call
            # built its row.
            if extra == "entries_built" and cache_info().misses > misses:
                stat.extra += len(result)
            return result

        return functools.wraps(fn)(traced)

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix, stat in self.stats.items():
            out[f"{prefix}.calls"] = stat.calls
            out[f"{prefix}.self_s"] = stat.self_s
            out[f"{prefix}.inclusive_s"] = stat.inclusive_s
            if prefix in self.cached:
                out[f"{prefix}.misses"] = self.cached[prefix].cache_info().misses - stat.misses0
            if stat.kind:
                out[f"{prefix}.{stat.kind}"] = stat.extra
        for name, memo in self.memos.items():
            out[f"cache.{name}.size"] = memo.cache_info().currsize
        return out
