"""Rule registry: every analysis rule, instantiated per run config."""

from __future__ import annotations

from typing import List

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Rule
from repro.analysis.rules.cache_key import CacheKeyRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.ordered_iteration import OrderedIterationRule

ALL_RULE_CLASSES = (
    DeterminismRule,
    OrderedIterationRule,
    CacheKeyRule,
)


def build_rules(config: AnalysisConfig) -> List[Rule]:
    """Instantiate every rule that the config activates.

    The structural cache-key rule only runs when the config names its
    anchor modules; the site rules (determinism, ordered-iteration) only
    run over modules matched by ``deterministic_globs``.
    """
    rules: List[Rule] = [DeterminismRule(config), OrderedIterationRule(config)]
    if config.cache_key is not None:
        rules.append(CacheKeyRule(config))
    return rules
