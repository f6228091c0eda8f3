"""The benchmark's span tracer and checks still find every name they use.

``perfbench/spans.py`` patches module functions and class methods of the
package by name; a refactor that drops or renames one breaks traced benchmark
runs.  Installing and uninstalling the tracer here catches that in tier-1.
``perfbench/checks.py`` and ``perfbench/workloads.py`` call a few package
internals directly; their names and call shapes are checked here too.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import ksample_evalues
import ksample_evalues.cli  # noqa: F401  (the tracer wraps cli.main)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULES = ("_quad", "expfam", "evariables", "ripr", "growth", "sequential", "cli")


def snapshot(pkg):
    """Every attribute of the package's modules and of the classes they define."""
    modules = [getattr(pkg, name) for name in MODULES]
    owners = modules + [c for m in modules for c in vars(m).values()
                        if isinstance(c, type) and c.__module__ == m.__name__]
    return {(o, key): value for o in owners for key, value in vars(o).items()}


def test_tracer_installs_and_restores_every_attribute():
    spans = load_spans()
    pkg = ksample_evalues
    before = snapshot(pkg)
    tracer = spans.Tracer(pkg, {})
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert patched
        for owner, attr, orig in patched:
            now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert now is not orig and now.__wrapped__ is orig, attr
    finally:
        tracer.uninstall()
    after = snapshot(pkg)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed


# (owner, name, positional arguments) as perfbench/checks.py and
# perfbench/workloads.py call them
BENCH_CALLS = [
    ("evariables", "_log_statistic", ("spec", "alt", "block", "kind", "mixture")),
    ("sequential", "expand_multiplicities", ("spec", "alt", "multiplicities")),
    ("ripr", "default_search_range", ("spec", "alt")),
    ("ripr.MixtureNull", "from_json_dict", ("payload",)),
    ("growth", "growth_rate", ("spec", "alt", "kind")),
]


@pytest.mark.parametrize("owner, name, args", BENCH_CALLS,
                         ids=[f"{o}.{n}" for o, n, _ in BENCH_CALLS])
def test_benchmark_calls_still_bind(owner, name, args):
    target = ksample_evalues
    for part in owner.split("."):
        target = getattr(target, part)
    inspect.signature(getattr(target, name)).bind(*args)
