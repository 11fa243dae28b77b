"""Analysis toolkit for logit distributions, distillation-target
manipulation, surrogate-logit models, linear-response attack predictions,
and mean-field manifold capacity."""

import importlib

__version__ = "0.1.0"


def _lazy(module: str, name: str):
    """A function that imports ``module`` on its first call and forwards every
    call, arguments unchanged, to ``module.name``.

    Bound at module level, it keeps ``module`` out of ``import logitlab.cli``
    while the name stays a plain attribute that callers may wrap or patch.
    """
    target = None

    def forward(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module), name)
        return target(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    forward.__doc__ = f"{module}.{name}, imported on the first call."
    return forward
