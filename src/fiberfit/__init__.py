"""Fiber and fine length distributions in standing trees from increment cores.

Increment-core samples censor the true cell lengths: cells may be cut by the
borer, long cells are over-sampled, and an optical fiber analyzer cannot
tell fines from fibers.  This package estimates the underlying length
distributions by maximum likelihood over censored parametric mixtures
(generalized gamma or lognormal), with analytic derivatives, delta-method
standard errors, transforms between the population scales, and
seed-controlled simulators.

Quick start::

    import numpy as np
    from fiberfit import CoreGeometry, Dataset, FitConfig, ModelSpec, fit, summary_stats

    data = Dataset(np.loadtxt("lengths.txt"), "X")
    model = ModelSpec("ggamma", "ofa", CoreGeometry(r=6.0))
    result = fit(data, model, FitConfig(seed=1))
    print(summary_stats(result))
"""

from .densities import (
    GgdParams,
    LognParams,
    MixtureParams,
    ParamVector,
    decode,
    encode,
    ggd_grad_theta,
    ggd_hess_theta,
    ggd_pdf,
    logn_grad_theta,
    logn_hess_theta,
    logn_pdf,
)
from .fitting import (
    FitConfig,
    FitError,
    FitResult,
    ModelSpec,
    covariance_original_scale,
    fit,
    initialize,
)
from .geometry import CoreGeometry, area_factor, cut_kernel, cut_kernel_cdf, prob_uncut
from .likelihood import (
    Dataset,
    DataValidationError,
    EvaluationError,
    LikelihoodEvaluation,
    init_loglik,
    micro_loglik,
    ofa_loglik,
)
from .quadrature import QuadratureError
from .scales import (
    ScaleDensity,
    density_v,
    density_w_component,
    density_w_mixture,
    density_x_component,
    density_x_mixture,
    density_y_mixture,
    mean_w_component,
    moment_w,
    tree_composition,
)
from .simulate import SimSpec, sample_v, sample_w, sample_x, sample_y
from .special import digamma, log_gamma, trigamma
from .summary import (
    ComponentStats,
    SummaryStats,
    summary_ses,
    summary_stats,
)

__version__ = "0.1.0"

__all__ = [
    "CoreGeometry",
    "area_factor",
    "prob_uncut",
    "cut_kernel",
    "cut_kernel_cdf",
    "GgdParams",
    "LognParams",
    "MixtureParams",
    "ParamVector",
    "encode",
    "decode",
    "ggd_pdf",
    "logn_pdf",
    "ggd_grad_theta",
    "logn_grad_theta",
    "ggd_hess_theta",
    "logn_hess_theta",
    "QuadratureError",
    "ScaleDensity",
    "mean_w_component",
    "moment_w",
    "density_w_component",
    "density_v",
    "density_x_component",
    "density_x_mixture",
    "density_y_mixture",
    "density_w_mixture",
    "tree_composition",
    "Dataset",
    "DataValidationError",
    "EvaluationError",
    "LikelihoodEvaluation",
    "ofa_loglik",
    "init_loglik",
    "micro_loglik",
    "ModelSpec",
    "FitConfig",
    "FitResult",
    "FitError",
    "initialize",
    "fit",
    "covariance_original_scale",
    "ComponentStats",
    "SummaryStats",
    "summary_stats",
    "summary_ses",
    "SimSpec",
    "sample_y",
    "sample_w",
    "sample_v",
    "sample_x",
    "digamma",
    "log_gamma",
    "trigamma",
]
