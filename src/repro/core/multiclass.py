"""Multi-class LS-SVM classification (paper §V future work).

The paper supports only binary classification and names multi-class
support as the canonical extension ("it is not difficult to include these
functionalities on the basis of our library"). Both standard decompositions
are provided, following Suykens & Vandewalle's multiclass LS-SVM paper and
LIBSVM's convention respectively:

* :class:`OneVsAllLSSVC` — one binary machine per class (class k vs the
  rest); prediction takes the argmax of the decision values.
* :class:`OneVsOneLSSVC` — one machine per class pair (LIBSVM's scheme);
  prediction by majority vote with decision-value tie-breaking.

Any binary estimator with the ``fit`` / ``decision_function`` interface
can be plugged in via ``estimator_factory`` — by default a fresh
:class:`repro.core.lssvm.LSSVC` with the given hyper-parameters.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import DataError, InvalidParameterError, NotFittedError
from ..membudget import memory_budget, reset_peak_rss, sample_peak_rss
from ..parameter import Parameter, ResourceConfig, SolverConfig
from ..telemetry import TrainingReport, build_report, fit_scope
from ..types import KernelType
from .cg import conjugate_gradient_block
from .estimator import ParamsMixin, apply_config, warn_deprecated_flat_kwargs
from .incremental import IncrementalEngine
from .lssvm import LSSVC
from .model import FeatureMapModel, LSSVMModel
from .precond import make_preconditioner
from .qmatrix import build_reduced_system
from .solvers import (
    SolverInfo,
    fit_rff_primal_multi,
    resolve_solver,
    solve_nystrom_block,
)

__all__ = ["OneVsAllLSSVC", "OneVsOneLSSVC"]

#: Config fields the multiclass wrappers expose as constructor keywords;
#: a passed config carrying a non-default value outside these raises.
_MC_SOLVER_FIELDS = (
    "solver",
    "solver_rank",
    "solver_seed",
    "polish_iters",
    "precondition",
    "precond_rank",
)
_MC_RESOURCE_FIELDS = (
    "solver_threads",
    "tile_cache_mb",
    "compute_dtype",
    "memory_budget_mb",
    "shard_rows",
)


def _unique_labels(y: np.ndarray) -> np.ndarray:
    labels = np.unique(np.asarray(y).ravel())
    if labels.size < 2:
        raise DataError("multi-class training requires at least two classes")
    return labels


def _positive_first(X: np.ndarray, binary: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reorder so a +1 sample leads the arrays.

    The binary estimators follow LIBSVM's convention of mapping the
    *first-seen* label to the internal positive class, which would flip the
    sign of ``decision_function`` whenever a -1 sample happens to come
    first. Swapping one positive sample to index 0 pins the orientation.
    """
    if binary[0] == 1.0:
        return X, binary
    pos = int(np.argmax(binary == 1.0))
    order = np.arange(binary.shape[0])
    order[0], order[pos] = order[pos], order[0]
    return X[order], binary[order]


class _MulticlassBase(ParamsMixin):
    """Shared constructor/plumbing of the two decompositions."""

    def __init__(
        self,
        kernel: Union[str, int, KernelType] = "linear",
        C: float = 1.0,
        *,
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 0.0,
        epsilon: float = 1e-3,
        implicit: Optional[bool] = None,
        precondition: Union[None, str, object] = None,
        precond_rank: Optional[int] = None,
        compute_dtype=None,
        solver_threads: Optional[int] = None,
        tile_cache_mb: Optional[float] = None,
        solver: str = "cg",
        solver_rank: Optional[int] = None,
        solver_seed: Union[None, int, np.random.Generator] = 0,
        polish_iters: int = 0,
        estimator_factory: Optional[Callable[[], object]] = None,
        memory_budget_mb: Optional[float] = None,
        shard_rows: Optional[int] = None,
        config: Optional[SolverConfig] = None,
        resources: Optional[ResourceConfig] = None,
    ) -> None:
        self.kernel = kernel
        self.C = C
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.epsilon = epsilon
        self.implicit = implicit
        self.precondition = precondition
        self.precond_rank = precond_rank
        self.compute_dtype = compute_dtype
        self.solver_threads = solver_threads
        self.tile_cache_mb = tile_cache_mb
        self.solver = solver
        self.solver_rank = solver_rank
        self.solver_seed = solver_seed
        self.polish_iters = polish_iters
        self.estimator_factory = estimator_factory
        self.memory_budget_mb = memory_budget_mb
        self.shard_rows = shard_rows
        self.config = config
        self.resources = resources
        warn_deprecated_flat_kwargs(
            self, (SolverConfig, config), (ResourceConfig, resources)
        )
        self._sync_params()
        self.classes_: Optional[np.ndarray] = None

    def _sync_params(self) -> None:
        # The grouped configs are authoritative over the flat attributes;
        # any parameter change also invalidates the stacked-coefficient
        # prediction cache and an in-flight incremental continuation.
        apply_config(
            self, getattr(self, "config", None), supported=_MC_SOLVER_FIELDS
        )
        apply_config(
            self, getattr(self, "resources", None), supported=_MC_RESOURCE_FIELDS
        )
        self._predict_state = None
        self._engine = None

    @property
    def _default_factory(self) -> bool:
        # The shared block solve builds the reduced system itself; it only
        # applies when the machines are the default LSSVC (a custom factory
        # may wrap any estimator, whose fit we must not bypass).
        return self.estimator_factory is None

    def _make_estimator(self):
        """One fresh binary machine, resolved at fit time.

        Resolving here (instead of capturing the hyper-parameters in a
        closure at construction) keeps :meth:`set_params` effective: the
        machines always see the estimator's *current* parameters.
        """
        if self.estimator_factory is not None:
            return self.estimator_factory()
        # Grouped-config form: keeps the machines' construction silent
        # under the flat-keyword deprecation.
        return LSSVC(
            kernel=self.kernel,
            C=self.C,
            gamma=self.gamma,
            degree=self.degree,
            coef0=self.coef0,
            epsilon=self.epsilon,
            implicit=self.implicit,
            config=SolverConfig(
                solver=self.solver,
                solver_rank=self.solver_rank,
                solver_seed=self.solver_seed,
                polish_iters=self.polish_iters,
                precondition=self.precondition,
                precond_rank=self.precond_rank,
            ),
            resources=ResourceConfig(
                solver_threads=self.solver_threads,
                tile_cache_mb=self.tile_cache_mb,
                compute_dtype=self.compute_dtype,
                memory_budget_mb=self.memory_budget_mb,
                shard_rows=self.shard_rows,
            ),
        )

    def _require_fitted(self) -> None:
        if self.classes_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet")

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy over the (multi-class) labels."""
        y = np.asarray(y).ravel()
        pred = self.predict(X)
        if pred.shape[0] != y.shape[0]:
            raise DataError("label vector length does not match data")
        return float(np.mean(pred == y))


class OneVsAllLSSVC(_MulticlassBase):
    """One-vs-all (one-vs-rest) multi-class LS-SVM.

    Trains ``K`` binary machines; machine ``k`` separates class ``k``
    (+1) from all other classes (-1). Ties resolve to the machine with the
    largest decision value — the LS-SVM's decision values are calibrated
    against the +/-1 targets, making argmax meaningful.

    All ``K`` machines share the same training points, so their reduced
    systems share the same ``Q_tilde`` — only the right-hand sides differ
    (``y`` re-signed per class). The default path therefore assembles
    **one** operator and solves all ``K`` systems with a single block-CG
    run: one kernel-tile sweep per iteration for the whole ensemble,
    instead of ``K`` independent sweeps. ``shared_solve=False`` (or a
    custom ``estimator_factory``) falls back to per-class fits.
    """

    def __init__(
        self,
        kernel: Union[str, int, KernelType] = "linear",
        C: float = 1.0,
        *,
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 0.0,
        epsilon: float = 1e-3,
        implicit: Optional[bool] = None,
        precondition: Union[None, str, object] = None,
        precond_rank: Optional[int] = None,
        compute_dtype=None,
        solver_threads: Optional[int] = None,
        tile_cache_mb: Optional[float] = None,
        solver: str = "cg",
        solver_rank: Optional[int] = None,
        solver_seed: Union[None, int, np.random.Generator] = 0,
        polish_iters: int = 0,
        estimator_factory: Optional[Callable[[], object]] = None,
        shared_solve: bool = True,
        memory_budget_mb: Optional[float] = None,
        shard_rows: Optional[int] = None,
        config: Optional[SolverConfig] = None,
        resources: Optional[ResourceConfig] = None,
        warm_start: bool = False,
    ) -> None:
        # The signature is spelled out (no *args/**kwargs passthrough) so
        # the ParamsMixin introspection sees every parameter.
        super().__init__(
            kernel,
            C,
            gamma=gamma,
            degree=degree,
            coef0=coef0,
            epsilon=epsilon,
            implicit=implicit,
            precondition=precondition,
            precond_rank=precond_rank,
            compute_dtype=compute_dtype,
            solver_threads=solver_threads,
            tile_cache_mb=tile_cache_mb,
            solver=solver,
            solver_rank=solver_rank,
            solver_seed=solver_seed,
            polish_iters=polish_iters,
            estimator_factory=estimator_factory,
            memory_budget_mb=memory_budget_mb,
            shard_rows=shard_rows,
            config=config,
            resources=resources,
        )
        self.shared_solve = bool(shared_solve)
        self.warm_start = bool(warm_start)
        self.report_: Optional[TrainingReport] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsAllLSSVC":
        from ..io.chunked import is_row_source  # deferred: io imports core

        y = np.asarray(y).ravel()
        # Warm start: stack the previous ensemble's multipliers before the
        # machines are discarded (only a shared support set maps onto the
        # new block unknown).
        self._warm_prev = None
        if self.warm_start and getattr(self, "machines_", None):
            models = [getattr(m, "model_", None) for m in self.machines_]
            if models and all(isinstance(mod, LSSVMModel) for mod in models):
                sv = models[0].support_vectors
                if all(mod.support_vectors is sv for mod in models[1:]):
                    self._warm_prev = np.column_stack([mod.alpha for mod in models])
        self._engine = None
        self._train_targets = None
        self._predict_state = None
        self.classes_ = _unique_labels(y)
        self.machines_: List[object] = []
        if not is_row_source(X):
            X = np.asarray(X)
        elif not (self.shared_solve and self._default_factory):
            raise InvalidParameterError(
                "chunked/row-source training data requires the shared block "
                "solve (shared_solve=True with the default estimator factory)"
            )
        if self.shared_solve and self._default_factory:
            return self._fit_shared(X, y)
        for label in self.classes_:
            binary = np.where(y == label, 1.0, -1.0)
            if not np.any(binary == 1.0):
                raise DataError(f"class {label} has no samples")
            X_ord, binary_ord = _positive_first(X, binary)
            clf = self._make_estimator()
            clf.fit(X_ord, binary_ord)
            self.machines_.append(clf)
        return self

    def _fit_shared(self, X: np.ndarray, y: np.ndarray) -> "OneVsAllLSSVC":
        """Train every one-vs-rest machine from one block solve.

        The per-class systems differ only in their labels: the reduced
        matrix of Eq. 14 depends on ``X`` (and ``C``) alone, while the
        right-hand side ``y_bar - y_m * 1`` and the bias recovery of
        Eq. 15 take the class-specific ``+1/-1`` targets. No reordering is
        needed (unlike :func:`_positive_first` on the legacy path): the
        orientation is pinned by constructing the targets as +1 for the
        class itself.
        """
        from ..io.chunked import is_row_source  # deferred: io imports core

        param = Parameter(
            kernel=self.kernel,
            cost=self.C,
            gamma=self.gamma,
            degree=self.degree,
            coef0=self.coef0,
            epsilon=self.epsilon,
        )
        if not is_row_source(X):
            X = np.ascontiguousarray(X, dtype=param.dtype)
        # (m, K) matrix of per-class +1/-1 targets.
        Y = np.stack(
            [np.where(y == label, 1.0, -1.0) for label in self.classes_], axis=1
        )
        solver = resolve_solver(self.solver)
        warm_iterations = 0
        # Reset the kernel RSS high-water mark before the wall clock
        # starts so the /proc write does not count against the fit.
        reset_peak_rss()
        with fit_scope(
            "OneVsAllLSSVC.fit", estimator="OneVsAllLSSVC", classes=len(self.classes_)
        ) as ctx, memory_budget(self.memory_budget_mb):
            if solver == "rff":
                # The random-feature primal shares even more than the
                # reduced system: one feature map, one Gram accumulation,
                # K right-hand sides of one (r+1)-dimensional solve.
                fmap, W, biases, result, info = fit_rff_primal_multi(
                    X, Y, param, rank=self.solver_rank, rng=self.solver_seed
                )
                operator = "feature_map"
                resolved = param.with_gamma_for(X.shape[1])
                seed = self.solver_seed if isinstance(self.solver_seed, int) else None
                for j, _ in enumerate(self.classes_):
                    clf = self._make_estimator()
                    clf.model_ = FeatureMapModel(
                        omega=fmap.omega,
                        offsets=fmap.offsets,
                        weights=np.ascontiguousarray(W[:, j]),
                        bias=float(biases[j]),
                        param=resolved,
                        labels=(1.0, -1.0),
                        seed=seed,
                    )
                    clf.result_ = result.column(j)
                    self.machines_.append(clf)
            else:
                with ctx.span("assembly"):
                    qmat, _ = build_reduced_system(
                        X,
                        Y[:, 0],
                        param,
                        implicit=self.implicit,
                        solver_threads=self.solver_threads,
                        tile_cache_mb=self.tile_cache_mb,
                        compute_dtype=self.compute_dtype,
                        shard_rows=self.shard_rows,
                    )
                operator = qmat.operator_name
                sample_peak_rss(ctx)
                B = Y[:-1, :] - Y[-1:, :]  # per-class rhs of Eq. 14
                if solver == "nystrom":
                    result, info = solve_nystrom_block(
                        qmat,
                        B,
                        rank=self.solver_rank,
                        rng=self.solver_seed,
                        polish_iters=self.polish_iters,
                        epsilon=self.epsilon,
                    )
                else:
                    info = SolverInfo()
                    precond = make_preconditioner(
                        qmat, self.precondition, rank=self.precond_rank, rng=0
                    )
                    X0 = None
                    prev = getattr(self, "_warm_prev", None)
                    n = B.shape[0]
                    if prev is not None and prev.shape[1] == len(self.classes_):
                        if prev.shape[0] == n + 1:
                            # Same-size refit: drop the recovered
                            # eliminated row.
                            X0 = np.array(prev[:n], dtype=qmat.dtype)
                        elif 0 < prev.shape[0] <= n:
                            X0 = np.zeros((n, prev.shape[1]), dtype=qmat.dtype)
                            X0[: prev.shape[0]] = prev
                    result = conjugate_gradient_block(
                        qmat,
                        B,
                        epsilon=self.epsilon,
                        max_iter=param.max_iter,
                        preconditioner=precond,
                        X0=X0,
                    )
                    if X0 is not None:
                        warm_iterations = result.iterations
                for j, _ in enumerate(self.classes_):
                    alpha_bar = result.X[:, j]
                    s = float(alpha_bar.sum())
                    # Eq. 15 with this machine's eliminated target Y[-1, j].
                    bias = (
                        float(Y[-1, j]) + qmat.q_mm * s - float(qmat.q_bar @ alpha_bar)
                    )
                    alpha = np.concatenate(
                        [alpha_bar, np.asarray([-s], dtype=qmat.dtype)]
                    )
                    clf = self._make_estimator()
                    clf.model_ = LSSVMModel(
                        support_vectors=qmat.X,
                        alpha=alpha,
                        bias=bias,
                        param=qmat.param,
                        labels=(1.0, -1.0),
                    )
                    clf.result_ = result.column(j)
                    self.machines_.append(clf)
            sample_peak_rss(ctx)
        # Keep the target block so partial_fit can continue this fit.
        self._train_targets = Y if isinstance(X, np.ndarray) else None
        self.report_ = build_report(
            ctx,
            estimator="OneVsAllLSSVC",
            backend="numpy (shared block solve)",
            num_samples=X.shape[0],
            num_features=X.shape[1],
            result=result,
            solver_strategy=info.strategy,
            solver_rank=info.rank,
            solver_setup_seconds=info.setup_seconds,
            warm_start_iterations=warm_iterations,
            solver_operator=operator,
        )
        return self

    def partial_fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsAllLSSVC":
        """Extend the shared training set by a chunk and refit all machines.

        One warm-started block-CG solve updates the whole ensemble: the
        accumulated kernel matrix grows by the new rows only, and every
        machine's previous multiplier column seeds the block initial
        guess. The first call must contain every class (it fixes
        ``classes_``); later chunks may contain any subset. A zero-row
        chunk is a bit-exact no-op. Continuing after a regular
        :meth:`fit` reuses that fit's solution (one kernel bootstrap on
        the first chunk).

        Machines' models are mutated in place with their caches
        invalidated, so live serving handles observe the refreshed
        ensemble. Requires the default shared solve with ``solver="cg"``
        and no row sharding.
        """
        if not (self.shared_solve and self._default_factory):
            raise InvalidParameterError(
                "partial_fit requires the shared block solve "
                "(shared_solve=True with the default estimator factory)"
            )
        if resolve_solver(self.solver) != "cg":
            raise InvalidParameterError("partial_fit requires solver='cg'")
        if self.shard_rows is not None:
            raise InvalidParameterError(
                "partial_fit does not support row sharding"
            )
        param = Parameter(
            kernel=self.kernel,
            cost=self.C,
            gamma=self.gamma,
            degree=self.degree,
            coef0=self.coef0,
            epsilon=self.epsilon,
        )
        X = np.asarray(X, dtype=param.dtype)
        if X.ndim != 2:
            raise DataError("training data must be 2-D")
        if X.shape[0] == 0:
            if self.classes_ is None:
                raise DataError("the first partial_fit chunk is empty")
            return self  # bit-exact no-op
        y = np.asarray(y).ravel()
        if y.shape[0] != X.shape[0]:
            raise DataError("label vector length does not match data")
        engine = getattr(self, "_engine", None)
        if engine is None:
            engine = IncrementalEngine(
                param,
                precondition=self.precondition,
                precond_rank=self.precond_rank,
                solver_threads=self.solver_threads,
                tile_cache_mb=self.tile_cache_mb,
                compute_dtype=self.compute_dtype,
            )
            if self.implicit is True:
                engine.explicit_limit = 0
            elif self.implicit is False:
                engine.explicit_limit = 2**62
            if self.classes_ is not None:
                # Continue from a previous shared fit.
                models = [getattr(m, "model_", None) for m in self.machines_]
                targets = getattr(self, "_train_targets", None)
                shared = (
                    models
                    and all(isinstance(mod, LSSVMModel) for mod in models)
                    and all(
                        mod.support_vectors is models[0].support_vectors
                        for mod in models[1:]
                    )
                )
                if not shared or targets is None:
                    raise InvalidParameterError(
                        "cannot continue incrementally from the previous fit "
                        "(machines do not share an appendable support set); "
                        "start from a fresh estimator"
                    )
                engine.seed(
                    models[0].support_vectors,
                    targets,
                    np.column_stack([mod.alpha for mod in models]),
                )
            else:
                self.classes_ = _unique_labels(y)
                self.machines_ = [
                    self._make_estimator() for _ in self.classes_
                ]
            self._engine = engine
        unknown = ~np.isin(y, self.classes_)
        if unknown.any():
            raise DataError(
                f"chunk contains labels outside classes_ "
                f"({np.unique(y[unknown])})"
            )
        Y = np.stack(
            [np.where(y == label, 1.0, -1.0) for label in self.classes_], axis=1
        )
        reset_peak_rss()
        with fit_scope(
            "OneVsAllLSSVC.partial_fit",
            estimator="OneVsAllLSSVC",
            classes=len(self.classes_),
        ) as ctx, memory_budget(self.memory_budget_mb):
            with ctx.span(
                "refit", new_rows=X.shape[0], total_rows=engine.num_rows + X.shape[0]
            ):
                res = engine.update(X, Y)
            sample_peak_rss(ctx)
            for j, clf in enumerate(self.machines_):
                alpha_j = np.ascontiguousarray(res.alpha[:, j])
                model = getattr(clf, "model_", None)
                if isinstance(model, LSSVMModel):
                    model.support_vectors = engine.X
                    model.alpha = alpha_j
                    model.bias = float(res.bias[j])
                    model.param = engine.param
                    model.labels = (1.0, -1.0)
                    model.invalidate_caches()
                else:
                    clf.model_ = LSSVMModel(
                        support_vectors=engine.X,
                        alpha=alpha_j,
                        bias=float(res.bias[j]),
                        param=engine.param,
                        labels=(1.0, -1.0),
                    )
                clf.result_ = res.result.column(j)
            # Drop the stacked-coefficient prediction cache: the support
            # set object changed, the next decision_matrix rebuilds it.
            self._predict_state = None
            sample_peak_rss(ctx)
        self._train_targets = engine.y
        self.report_ = build_report(
            ctx,
            estimator="OneVsAllLSSVC",
            backend="numpy (shared block solve)",
            num_samples=engine.num_rows,
            num_features=engine.X.shape[1],
            result=res.result,
            warm_start_iterations=res.warm_start_iterations,
            solver_operator=res.qmat.operator_name,
        )
        return self

    def _shared_predict_state(self):
        """Stacked coefficients when every machine shares one support set.

        The shared block solve gives all K machines the *same* support
        vector array (one object); their decision values then differ only
        by alpha column and bias, so the whole ensemble's decision matrix
        is one cross-kernel sweep ``K(X, SV) @ A + b`` — the serving-side
        twin of the training-side "one assembly, one block solve"
        optimization — instead of K independent kernel evaluations.
        Returns ``None`` when the machines do not share a support set
        (custom factory / legacy per-class fits with reordered rows).
        """
        models = [getattr(m, "model_", None) for m in self.machines_]
        if not models or any(mod is None for mod in models):
            return None
        if all(isinstance(mod, FeatureMapModel) for mod in models):
            # Compact ensemble from the shared rff fit: every machine
            # shares one feature map object, so the decision matrix is a
            # single z(X) @ W + b — one transform for all K classes.
            key = models[0].omega
            if any(mod.omega is not key for mod in models[1:]):
                return None
            cached = getattr(self, "_predict_state", None)
            if cached is not None and cached[0] is key and len(cached[2]) == len(models):
                return cached
            param = models[0].param
            W = np.column_stack([mod.weights for mod in models])
            biases = np.asarray([mod.bias for mod in models], dtype=param.dtype)
            state = (key, param, biases, None, W, None, models[0].transform)
            self._predict_state = state
            return state
        if any(isinstance(mod, FeatureMapModel) for mod in models):
            return None
        sv = models[0].support_vectors
        if any(mod.support_vectors is not sv for mod in models[1:]):
            return None
        cached = getattr(self, "_predict_state", None)
        if cached is not None and cached[0] is sv and len(cached[2]) == len(models):
            return cached
        param = models[0].param
        A = np.column_stack([mod.alpha for mod in models])
        biases = np.asarray([mod.bias for mod in models], dtype=param.dtype)
        if param.kernel is KernelType.LINEAR:
            pipeline = None
            W = np.column_stack([mod.weight_vector() for mod in models])
        else:
            from .tile_pipeline import TilePipeline

            W = None
            pipeline = TilePipeline(
                sv,
                param.kernel,
                gamma=param.gamma,
                degree=param.degree,
                coef0=param.coef0,
                num_threads=self.solver_threads,
                cache_mb=0.0,
                dtype=param.dtype,
                compute_dtype=self.compute_dtype,
            )
        state = (sv, param, biases, A, W, pipeline, None)
        self._predict_state = state
        return state

    def decision_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-class decision values, shape ``(len(X), num_classes)``.

        When the machines share one support set (the default shared-solve
        fit), all K columns come from a single warm tile-pipeline sweep;
        otherwise each machine evaluates independently.
        """
        self._require_fitted()
        state = self._shared_predict_state()
        if state is not None:
            _, param, biases, A, W, pipeline, transform = state
            Xd = np.asarray(X, dtype=param.dtype)
            if Xd.ndim == 1:
                Xd = Xd[None, :]
            if W is not None:
                Z = Xd if transform is None else transform(Xd)
                return Z @ W + biases
            return pipeline.cross_sweep(Xd, A) + biases
        columns = [np.atleast_1d(m.decision_function(X)) for m in self.machines_]
        return np.column_stack(columns)

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_matrix(X)
        return self.classes_[np.argmax(scores, axis=1)]


class OneVsOneLSSVC(_MulticlassBase):
    """One-vs-one multi-class LS-SVM (LIBSVM's decomposition).

    Trains ``K (K-1) / 2`` pairwise machines on the two classes' points
    only. Prediction is by vote; ties break on the summed decision values
    in favour of the class the tied machines are more confident about.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsOneLSSVC":
        from ..io.chunked import is_row_source  # deferred: io imports core

        # Row sources are supported by gathering each pair's (smaller)
        # subset — pairwise machines need reordered dense subsets anyway.
        source = X if is_row_source(X) else None
        if source is None:
            X = np.asarray(X)
        y = np.asarray(y).ravel()
        self.classes_ = _unique_labels(y)
        self.pairs_: List[Tuple[float, float]] = []
        self.machines_ = []
        for a, b in itertools.combinations(self.classes_, 2):
            mask = (y == a) | (y == b)
            if np.all(y[mask] == y[mask][0]):
                raise DataError(f"classes {a} and {b} are not both present")
            binary = np.where(y[mask] == a, 1.0, -1.0)
            X_pair = (
                source.gather_rows(np.nonzero(mask)[0])
                if source is not None
                else X[mask]
            )
            X_ord, binary_ord = _positive_first(X_pair, binary)
            clf = self._make_estimator()
            clf.fit(X_ord, binary_ord)
            self.pairs_.append((float(a), float(b)))
            self.machines_.append(clf)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = np.asarray(X)
        n = X.shape[0] if X.ndim == 2 else 1
        class_index: Dict[float, int] = {
            float(c): i for i, c in enumerate(self.classes_)
        }
        votes = np.zeros((n, len(self.classes_)), dtype=np.int64)
        confidence = np.zeros((n, len(self.classes_)), dtype=np.float64)
        for (a, b), clf in zip(self.pairs_, self.machines_):
            f = np.atleast_1d(clf.decision_function(X))
            ia, ib = class_index[a], class_index[b]
            a_wins = f >= 0
            votes[a_wins, ia] += 1
            votes[~a_wins, ib] += 1
            confidence[:, ia] += f
            confidence[:, ib] -= f
        # Majority vote; break ties by accumulated confidence.
        best = np.zeros(n, dtype=np.int64)
        for i in range(n):
            top = votes[i].max()
            tied = np.nonzero(votes[i] == top)[0]
            best[i] = tied[np.argmax(confidence[i, tied])]
        return self.classes_[best]

    @property
    def num_machines(self) -> int:
        self._require_fitted()
        return len(self.machines_)
