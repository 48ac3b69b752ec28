"""Fixture coverage for the structural contract rule ``cache-key``."""

from __future__ import annotations

from repro.analysis import AnalysisConfig, CacheKeyContract

from analysis_helpers import findings_by_rule, run_fixtures


def cache_config(exempt):
    return AnalysisConfig(
        cache_key=CacheKeyContract(
            config_module="cachemod.py",
            config_class="EngineConfig",
            key_module="cachemod.py",
            key_var="context_key",
            exempt=exempt,
        )
    )


class TestCacheKeyRule:
    def test_unregistered_field_missing_from_key_is_flagged(self):
        report = run_fixtures(
            ["cachemod.py"], cache_config({"deadline_s": "fixture: never cached"})
        )
        found = findings_by_rule(report, "cache-key")
        assert [f.symbol for f in found] == ["width"]
        assert "neither read" in found[0].message

    def test_fully_partitioned_config_is_clean(self):
        report = run_fixtures(
            ["cachemod.py"],
            cache_config(
                {"width": "fixture: cosmetic", "deadline_s": "fixture: never cached"}
            ),
        )
        assert report.clean

    def test_field_in_key_and_exempt_is_contradictory(self):
        report = run_fixtures(
            ["cachemod.py"],
            cache_config(
                {
                    "depth": "fixture: contradiction",
                    "width": "fixture: cosmetic",
                    "deadline_s": "fixture: never cached",
                }
            ),
        )
        found = findings_by_rule(report, "cache-key")
        assert [f.symbol for f in found] == ["depth"]
        assert "both" in found[0].message

    def test_exempting_a_nonexistent_field_is_stale_registry(self):
        report = run_fixtures(
            ["cachemod.py"],
            cache_config(
                {
                    "width": "fixture: cosmetic",
                    "deadline_s": "fixture: never cached",
                    "ghost": "fixture: no such field",
                }
            ),
        )
        stale = findings_by_rule(report, "stale-registry")
        assert [f.symbol for f in stale] == ["ghost"]

    def test_renamed_key_variable_loses_the_anchor(self):
        config = AnalysisConfig(
            cache_key=CacheKeyContract(
                config_module="cachemod.py",
                config_class="EngineConfig",
                key_module="cachemod.py",
                key_var="renamed_key",
            )
        )
        report = run_fixtures(["cachemod.py"], config)
        stale = findings_by_rule(report, "stale-registry")
        assert len(stale) == 1
        assert "lost its anchor" in stale[0].message
