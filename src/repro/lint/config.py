"""Lint configuration: roots, excludes, path scopes, rule options.

Defaults encode this repo's layout; ``lint.toml`` at the repo root
overrides them (stdlib ``tomllib``, no third-party parser).  Path
patterns are ``fnmatch`` globs over repo-relative POSIX paths, where
``*`` crosses ``/`` -- ``src/repro/reliable/*`` covers the whole
subtree.

Scopes map the invariant surface, not the directory tree:

* ``parity`` -- modules and tests that promise *bitwise* results
  (reliable/, core/, serving/, the fuzz harness, parity/golden
  tests).  Float ``==`` and order-sensitive reductions are hazards
  here and nowhere else.
* ``compute`` -- numeric compute paths whose outputs feed verdicts.
  Wall-clock, environment, ``id()`` and set-iteration hazards apply;
  orchestration layers (campaigns, workflows, serving) legitimately
  read clocks and are excluded.
* ``src`` -- all shipped library code (RNG discipline).
* ``all`` -- everything the walker reaches (hygiene rules).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

#: Name of the repo-root config file picked up automatically.
DEFAULT_CONFIG_FILE = "lint.toml"

DEFAULT_ROOTS = ["src", "tests", "benchmarks"]

#: Generated/vendored files the walker never descends into.
DEFAULT_EXCLUDE = [
    "benchmarks/artifacts/*",
    "tests/lint/fixtures/*",
    "*/.git/*",
    "*/.hypothesis/*",
    "*/.pytest_cache/*",
    "*/__pycache__/*",
    "*.egg-info/*",
]

DEFAULT_SCOPES: dict[str, list[str]] = {
    "parity": [
        "src/repro/reliable/*",
        "src/repro/core/*",
        "src/repro/serving/*",
        "tests/support/fuzz.py",
        "tests/*parity*",
        "tests/*golden*",
    ],
    "compute": [
        "src/repro/reliable/*",
        "src/repro/core/*",
        "src/repro/vision/*",
        "src/repro/sax/*",
        "src/repro/nn/*",
        "src/repro/data/*",
        "src/repro/faults/*",
        "src/repro/analysis/*",
        "src/repro/hybridir/*",
        "src/repro/baselines/*",
    ],
    "src": ["src/*"],
}

#: Extra per-rule options with repo-tuned defaults (see each rule's
#: docstring for semantics).
DEFAULT_RULE_OPTIONS: dict[str, dict] = {
    # default_rng() / default_rng(<literal>) is only a hazard where
    # streams must be independent or campaign-controlled; weight-init
    # fallbacks like ``rng or default_rng(0)`` are deterministic by
    # design and stay unflagged outside these paths.
    "RNG-SEED": {
        "strict_paths": [
            "src/repro/faults/*",
            "src/repro/campaigns/*",
            "src/repro/serving/*",
        ],
    },
    # Where a public *_batch callable may discharge its parity
    # obligation (PARITY-ORPHAN).
    "PARITY-ORPHAN": {
        "test_globs": [
            "tests/*parity*",
            "tests/*golden*",
            "tests/*fuzz*",
            "tests/*determinism*",
            "tests/support/fuzz.py",
        ],
    },
}


@dataclass
class LintConfig:
    root: Path
    roots: list[str] = field(default_factory=lambda: list(DEFAULT_ROOTS))
    exclude: list[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDE))
    baseline_path: str = "lint-baseline.json"
    scopes: dict[str, list[str]] = field(
        default_factory=lambda: {k: list(v) for k, v in DEFAULT_SCOPES.items()}
    )
    rule_excludes: dict[str, list[str]] = field(default_factory=dict)
    rule_options: dict[str, dict] = field(
        default_factory=lambda: {
            k: dict(v) for k, v in DEFAULT_RULE_OPTIONS.items()
        }
    )
    disabled: set[str] = field(default_factory=set)

    # -- path predicates -------------------------------------------------
    def is_excluded(self, rel_path: str) -> bool:
        return any(fnmatch(rel_path, pat) for pat in self.exclude)

    def in_scope(self, scope: str, rel_path: str) -> bool:
        if scope == "all":
            return True
        patterns = self.scopes.get(scope, [])
        return any(fnmatch(rel_path, pat) for pat in patterns)

    def rule_applies(self, rule, rel_path: str) -> bool:
        if rule.id in self.disabled:
            return False
        if not self.in_scope(rule.scope, rel_path):
            return False
        return not any(
            fnmatch(rel_path, pat)
            for pat in self.rule_excludes.get(rule.id, [])
        )

    def options_for(self, rule_id: str) -> dict:
        return self.rule_options.get(rule_id, {})


def _str_list(value, key: str) -> list[str]:
    """A TOML list of strings, or ``ValueError`` -- a bare string would
    otherwise iterate as its characters (``roots = "src"`` scanning
    ``s``, ``r`` and ``c``) and pass the gate vacuously."""
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(
            f"lint config: {key} must be a list of strings, got {value!r}"
        )
    return list(value)


def load_config(root: Path, config_path: Path | None = None) -> LintConfig:
    """Config for ``root``, merged with ``lint.toml`` when present.

    TOML keys live under ``[lint]`` (``roots``, ``exclude``,
    ``baseline``, ``disabled``), ``[lint.scopes]`` (scope -> glob
    list, replacing the default list per key), and
    ``[lint.rules."RULE-ID"]`` (``exclude`` globs plus arbitrary rule
    options).  Lists *replace* defaults rather than appending --
    explicit beats clever for an invariant gate.  Every list-valued
    key (and each rule option whose default is a list) must be a list
    of strings; anything else raises ``ValueError``.
    """
    root = Path(root).resolve()
    config = LintConfig(root=root)
    path = config_path or (root / DEFAULT_CONFIG_FILE)
    if not Path(path).exists():
        if config_path is not None:
            raise FileNotFoundError(f"lint config not found: {config_path}")
        return config
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    section = data.get("lint", {})
    if "roots" in section:
        config.roots = _str_list(section["roots"], "roots")
    if "exclude" in section:
        config.exclude = _str_list(section["exclude"], "exclude")
    if "baseline" in section:
        config.baseline_path = str(section["baseline"])
    if "disabled" in section:
        config.disabled = set(_str_list(section["disabled"], "disabled"))
    for scope, patterns in section.get("scopes", {}).items():
        config.scopes[scope] = _str_list(patterns, f"scopes.{scope}")
    for rule_id, options in section.get("rules", {}).items():
        options = dict(options)
        excludes = options.pop("exclude", None)
        if excludes is not None:
            config.rule_excludes[rule_id] = _str_list(
                excludes, f"rules.{rule_id}.exclude"
            )
        defaults = DEFAULT_RULE_OPTIONS.get(rule_id, {})
        for key, value in options.items():
            if isinstance(defaults.get(key), list):
                options[key] = _str_list(value, f"rules.{rule_id}.{key}")
        if options:
            merged = dict(config.rule_options.get(rule_id, {}))
            merged.update(options)
            config.rule_options[rule_id] = merged
    return config
