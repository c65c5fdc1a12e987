"""RNG discipline: RNG-LEGACY / RNG-STDLIB / RNG-SEED.

The PR 2 incident: ``FaultModel`` instances defaulted to
``default_rng(0)``, so two nominally independent fault streams were
bit-identical and campaign results depended on evaluation order.  The
fix -- and the repo-wide convention these rules enforce -- is that
every stochastic component takes an explicit ``numpy.random.Generator``
spawned from a campaign-controlled :class:`~numpy.random.SeedSequence`
(see :mod:`repro.campaigns.seeding`).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from fnmatch import fnmatch

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: numpy legacy global-state API (shared mutable stream, silently
#: order-dependent).  ``default_rng``/``Generator``/``SeedSequence``
#: are the sanctioned modern API and are not in this set.
NUMPY_LEGACY = {
    "seed", "get_state", "set_state", "rand", "randn", "randint",
    "random", "random_sample", "ranf", "sample", "random_integers",
    "choice", "bytes", "shuffle", "permutation", "beta", "binomial",
    "chisquare", "dirichlet", "exponential", "f", "gamma", "geometric",
    "gumbel", "hypergeometric", "laplace", "logistic", "lognormal",
    "logseries", "multinomial", "multivariate_normal",
    "negative_binomial", "noncentral_chisquare", "noncentral_f",
    "normal", "pareto", "poisson", "power", "rayleigh",
    "standard_cauchy", "standard_exponential", "standard_gamma",
    "standard_normal", "standard_t", "triangular", "uniform",
    "vonmises", "wald", "weibull", "zipf", "RandomState",
}

#: stdlib ``random`` module-level functions (one hidden global
#: ``Random()`` instance shared by the whole process).
STDLIB_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "seed",
    "getrandbits", "betavariate", "expovariate", "triangular",
    "lognormvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "binomialvariate",
}


@register
class NumpyLegacyRule(Rule):
    id = "RNG-LEGACY"
    title = "numpy legacy global-state random API"
    severity = Severity.ERROR
    scope = "all"
    rationale = (
        "np.random.seed()/rand()/... share one hidden global stream: any "
        "two call sites are coupled and results depend on call order and "
        "worker scheduling -- the exact failure class behind the PR 2 "
        "campaign order-dependence.  Take an explicit Generator spawned "
        "from a SeedSequence."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            qualname = ctx.call_qualname(node) or ""
            if (
                qualname.startswith("numpy.random.")
                and qualname.rpartition(".")[2] in NUMPY_LEGACY
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{qualname} uses numpy's hidden global stream; pass an "
                    "explicit spawned Generator",
                )


@register
class StdlibRandomRule(Rule):
    id = "RNG-STDLIB"
    title = "stdlib random module-level function"
    severity = Severity.ERROR
    scope = "all"
    rationale = (
        "random.random()/choice()/... draw from one process-global "
        "Random() whose state any import can perturb; reproducibility "
        "claims cannot survive it.  Use numpy Generators (or an explicit "
        "random.Random(seed) instance for non-numeric needs)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            qualname = ctx.call_qualname(node) or ""
            # ``random.Random(seed)`` instances are sanctioned; only
            # the module-level functions share the hidden global.
            # Require a real ``import random`` so a local variable
            # named ``random`` cannot trip the rule.
            if (
                qualname.startswith("random.")
                and qualname.rpartition(".")[2] in STDLIB_RANDOM
                and ctx.imports.get("random") == "random"
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{qualname} draws from the process-global stdlib "
                    "stream; use an explicit seeded generator",
                )


@register
class UnseededDefaultRngRule(Rule):
    id = "RNG-SEED"
    title = "default_rng() without a campaign-derived seed"
    severity = Severity.ERROR
    scope = "src"
    rationale = (
        "In stochastic subsystems (faults/, campaigns/, serving/) "
        "default_rng() is nondeterministic and default_rng(<literal>) "
        "recreates the PR 2 bug: every caller gets the *same* stream, so "
        "nominally independent components are bit-correlated.  Streams "
        "there must derive from an explicit spawned SeedSequence.  "
        "Module-level generators are flagged everywhere in src: import "
        "order becomes part of the experiment."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        options = ctx.options_for(self.id)
        strict = any(
            fnmatch(ctx.rel_path, pat)
            for pat in options.get("strict_paths", [])
        )
        module_level_calls = self._module_level_calls(ctx.tree)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            qualname = ctx.call_qualname(node) or ""
            if qualname != "numpy.random.default_rng":
                continue
            at_module_level = id(node) in module_level_calls
            if not strict and not at_module_level:
                continue
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "default_rng() with no seed is fresh entropy: results "
                    "are unreproducible; derive the stream from a spawned "
                    "SeedSequence",
                )
            elif node.args and isinstance(node.args[0], ast.Constant):
                yield self.finding(
                    ctx,
                    node,
                    "default_rng(<literal>) hands every caller the same "
                    "stream (the PR 2 FaultModel bug); derive per-component "
                    "streams from a spawned SeedSequence",
                )
            elif at_module_level:
                yield self.finding(
                    ctx,
                    node,
                    "module-level generator: shared mutable stream whose "
                    "draws depend on import/evaluation order",
                )

    @staticmethod
    def _module_level_calls(tree: ast.AST) -> set[int]:
        """ids of Call nodes executed at import time: reachable
        without crossing a function boundary.  Class bodies count --
        a class-attribute generator is shared by every instance,
        which is exactly the hazard."""
        found: set[int] = set()
        stack = list(getattr(tree, "body", []))
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Call):
                found.add(id(node))
            stack.extend(ast.iter_child_nodes(node))
        return found
