"""Tests for the cost model (repro.core.costs)."""

import numpy as np
import pytest

from repro.core.config import Configuration
from repro.core.costs import CostModel, bandwidth_migration_matrix
from repro.core.load import LinearLoad
from repro.topology.generators import line, star
from repro.topology.substrate import Link, Substrate


class TestConstruction:
    def test_paper_defaults(self):
        cm = CostModel.paper_default()
        assert cm.migration == 40.0
        assert cm.creation == 400.0
        assert cm.run_active == 2.5
        assert cm.run_inactive == 0.5

    def test_migration_expensive(self):
        cm = CostModel.migration_expensive()
        assert cm.migration == 400.0
        assert cm.creation == 40.0

    def test_default_load_is_linear(self):
        assert isinstance(CostModel().load, LinearLoad)

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError, match="migration"):
            CostModel(migration=-1)

    def test_rejects_inactive_dearer_than_active(self):
        with pytest.raises(ValueError, match="run_inactive"):
            CostModel(run_active=1.0, run_inactive=2.0)

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            CostModel(migration_matrix=np.zeros((2, 3)))

    def test_rejects_negative_matrix(self):
        with pytest.raises(ValueError, match=">= 0"):
            CostModel(migration_matrix=np.full((2, 2), -1.0))

    def test_matrix_copy_is_frozen(self):
        source = np.ones((2, 2))
        cm = CostModel(migration_matrix=source)
        source[0, 0] = 99.0
        assert cm.migration_matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            cm.migration_matrix[0, 0] = 5.0


class TestRunningCost:
    def test_counts(self):
        cm = CostModel.paper_default()
        assert cm.running_cost_counts(3, 2) == pytest.approx(3 * 2.5 + 2 * 0.5)

    def test_configuration(self):
        cm = CostModel.paper_default()
        cfg = Configuration((1, 2), (3,))
        assert cm.running_cost(cfg) == pytest.approx(2 * 2.5 + 0.5)

    def test_empty_configuration_is_free(self):
        assert CostModel().running_cost(Configuration.empty()) == 0.0


class TestMigrationCost:
    def test_constant_beta(self):
        cm = CostModel.paper_default()
        assert cm.migration_cost(0, 5) == 40.0

    def test_same_node_is_free(self):
        assert CostModel.paper_default().migration_cost(3, 3) == 0.0

    def test_matrix_lookup(self):
        matrix = np.array([[0.0, 7.0], [9.0, 0.0]])
        cm = CostModel(migration_matrix=matrix)
        assert cm.migration_cost(0, 1) == 7.0
        assert cm.migration_cost(1, 0) == 9.0


class TestBandwidthMigrationMatrix:
    def test_diagonal_zero_and_symmetric_shape(self):
        sub = line(4, seed=0)
        matrix = bandwidth_migration_matrix(sub)
        assert matrix.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(matrix), np.zeros(4))

    def test_farther_pairs_cost_at_least_as_much_on_uniform_path(self):
        # Uniform bandwidths: the bottleneck is the same, so cost is flat
        # across pairs (overhead + transfer over equal bottleneck).
        links = [Link(i, i + 1, 1.0, 2.0) for i in range(3)]
        sub = Substrate(4, links)
        matrix = bandwidth_migration_matrix(sub, state_size_mbit=10.0, overhead=1.0)
        off = matrix[~np.eye(4, dtype=bool)]
        assert np.allclose(off, off[0])

    def test_bottleneck_drives_cost(self):
        """A slow link on the path makes migration across it dearer."""
        links = [Link(0, 1, 1.0, 10.0), Link(1, 2, 1.0, 1.0)]
        sub = Substrate(3, links)
        matrix = bandwidth_migration_matrix(sub, state_size_mbit=10.0, overhead=0.0)
        assert matrix[0, 2] > matrix[0, 1]
        assert matrix[1, 2] == pytest.approx(matrix[0, 2])  # same bottleneck

    def test_read_only(self):
        matrix = bandwidth_migration_matrix(line(3, seed=0))
        with pytest.raises(ValueError):
            matrix[0, 1] = 3.0

    def test_usable_in_cost_model(self):
        sub = star(4, seed=0)
        matrix = bandwidth_migration_matrix(sub)
        cm = CostModel(migration_matrix=matrix)
        assert cm.migration_cost(1, 2) == pytest.approx(matrix[1, 2])

    def test_parameter_validation(self):
        sub = line(3, seed=0)
        with pytest.raises(ValueError, match="state_size_mbit"):
            bandwidth_migration_matrix(sub, state_size_mbit=0)
        with pytest.raises(ValueError, match="overhead"):
            bandwidth_migration_matrix(sub, overhead=-1)
