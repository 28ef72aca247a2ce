"""Contract tests for the public API surface."""

import numpy as np
import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing {name}"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_key_classes_importable(self):
        from repro import (
            AcornIndex,
            AcornOneIndex,
            AcornParams,
            AttributeTable,
            FlatAcornIndex,
            HnswIndex,
            RoutePlanner,
            load_index,
            save_index,
        )

        assert AcornIndex and AcornOneIndex and FlatAcornIndex
        assert AcornParams and AttributeTable and HnswIndex
        assert RoutePlanner and load_index and save_index

    def test_baselines_namespace(self):
        from repro import baselines

        for name in baselines.__all__:
            assert hasattr(baselines, name)

    def test_predicates_namespace(self):
        from repro import predicates

        for name in predicates.__all__:
            assert hasattr(predicates, name)

    def test_serving_namespace(self):
        from repro import serving

        for name in serving.__all__:
            assert hasattr(serving, name), (
                f"repro.serving.__all__ exports missing {name}"
            )

    def test_lifecycle_namespace(self):
        from repro import lifecycle

        for name in lifecycle.__all__:
            assert hasattr(lifecycle, name), (
                f"repro.lifecycle.__all__ exports missing {name}"
            )

    def test_lifecycle_exports_pinned(self):
        """The lifecycle surface the docs and serving layer rely on."""
        from repro import lifecycle

        expected = {
            "LifecycleIndex", "LifecycleConfig", "EpochSnapshot",
            "BackgroundCompactor", "CompactorFaultPlan",
            "ShardedLifecycleIndex", "DeltaJournal",
            "save_lifecycle", "load_lifecycle",
        }
        missing = expected - set(dir(lifecycle))
        assert not missing, f"repro.lifecycle missing exports: {missing}"
        # The headline names are also re-exported at top level.
        import repro

        for name in ("LifecycleIndex", "LifecycleConfig",
                     "EpochSnapshot", "BackgroundCompactor",
                     "ShardedLifecycleIndex"):
            assert hasattr(repro, name)
            assert name in repro.__all__

    def test_serving_exports_pinned(self):
        """The serving surface other layers and docs rely on."""
        from repro import serving

        expected = {
            "AcornService", "ServingConfig", "ServedResponse",
            "TenantQuota", "TenantRegistry", "TokenBucket",
            "ArrivalSchedule", "Arrival", "generate_arrivals",
            "replay", "replay_realtime", "summarize_load",
        }
        missing = expected - set(dir(serving))
        assert not missing, f"repro.serving missing exports: {missing}"
        # The headline names are also re-exported at top level.
        import repro

        for name in ("AcornService", "ServingConfig", "ServedResponse",
                     "TenantQuota", "ArrivalSchedule"):
            assert name in repro.__all__
            assert hasattr(repro, name)


class TestDeterminism:
    """Identical seeds must give identical indexes and results —
    the property every benchmark and persistence test leans on."""

    def _build(self):
        from repro import AcornIndex, AcornParams, AttributeTable, Equals

        gen = np.random.default_rng(99)
        vectors = gen.standard_normal((150, 8)).astype(np.float32)
        table = AttributeTable(150)
        table.add_int_column("label", gen.integers(0, 3, size=150))
        index = AcornIndex.build(
            vectors, table,
            params=AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24),
            seed=7,
        )
        result = index.search(vectors[0], Equals("label", 1), 5, ef_search=32)
        return index, result

    def test_builds_identical(self):
        index_a, result_a = self._build()
        index_b, result_b = self._build()
        assert index_a.graph.entry_point == index_b.graph.entry_point
        for level in range(index_a.graph.max_level + 1):
            for node in index_a.graph.nodes_at_level(level):
                assert index_a.graph.neighbors(node, level) == (
                    index_b.graph.neighbors(node, level)
                )
        np.testing.assert_array_equal(result_a.ids, result_b.ids)
        assert result_a.distance_computations == result_b.distance_computations

    def test_parallel_namespace(self):
        from repro import parallel

        for name in parallel.__all__:
            assert hasattr(parallel, name), (
                f"repro.parallel.__all__ exports missing {name}"
            )
