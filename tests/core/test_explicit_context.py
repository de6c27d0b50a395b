"""Every solver context is passed explicitly.

There is no process-wide default context: a parameter typed
``SolverContext`` never has a default, so a call that forgets its
context fails with ``TypeError`` instead of silently sharing caches with
every other caller in the process.
"""

import importlib
import inspect
import pkgutil
import re

import pytest

from repro.arith import context

PACKAGES = ("repro.core", "repro.seplog", "repro.analysis", "repro.baselines")

#: ``SolverContext`` or ``Optional[SolverContext]``, quoted or not (a
#: mapping of contexts, such as ``InferenceResult.contexts``, is not one).
CONTEXT_ANNOTATION = re.compile(r"(Optional\[)?['\"]?SolverContext['\"]?\]?")


def _modules(package_name):
    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.walk_packages(package.__path__, package_name + "."):
        yield importlib.import_module(info.name)


def _functions(module):
    """Functions and methods defined in *module* (not imported into it)."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                fn = getattr(member, "__func__", member)
                if inspect.isfunction(fn):
                    yield fn.__qualname__, fn


def _context_params_with_defaults(module):
    for qualname, fn in _functions(module):
        for param in inspect.signature(fn).parameters.values():
            annotation = param.annotation
            if not isinstance(annotation, str):
                annotation = getattr(annotation, "__name__", repr(annotation))
            if not CONTEXT_ANNOTATION.fullmatch(annotation):
                continue
            if param.default is not inspect.Parameter.empty:
                yield f"{module.__name__}.{qualname}({param.name})"


@pytest.mark.parametrize("package", PACKAGES)
def test_no_solver_context_parameter_has_a_default(package):
    offenders = [
        name
        for module in _modules(package)
        for name in _context_params_with_defaults(module)
    ]
    assert offenders == []


def test_there_is_no_default_context():
    assert not hasattr(context, "default_context")
    assert not hasattr(context, "resolve")
