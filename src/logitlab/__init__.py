"""Analysis toolkit for logit distributions, distillation-target
manipulation, surrogate-logit models, linear-response attack predictions,
and mean-field manifold capacity."""

__version__ = "0.1.0"
