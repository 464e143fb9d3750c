"""The workload table agrees with the runner and with the checker's formulas."""

import pytest

import checker
from workloads import WORKLOADS


def test_runner_names_every_workload():
    import run

    assert run.NAMES == tuple(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_is_a_trajectory_of_the_checker_system(name):
    cli = pytest.importorskip("tightpath.cli")
    workload = WORKLOADS[name]
    _, _, xbar, ubar = cli.load_problem(workload.config)
    reference = checker.Reference(xbar.grid.nodes, xbar.states, ubar.values)
    checker.check_reference(workload.system, reference)
