"""A fault plan that cannot mean what it says is refused when it is built.

Each malformed row below used to load and then do nothing (a ``links`` key
no lookup ever forms, a node on both sides of a partition) or something
other than what it says (a probability above 1, a negative hold).  The
plan names the field at fault; ``LocalCluster`` also refuses a plan that
names a node its cluster does not have.
"""

import pytest

from repro.errors import ConfigurationError
from repro.network.faults import FaultPlan, LinkFaults, Partition
from repro.service.cluster import LocalCluster

_DROP_ALL = LinkFaults(drop=1.0)

MALFORMED = {
    "links key with spaces": (lambda: FaultPlan(links={"2 -> 1": _DROP_ALL}), "links"),
    "links key with no arrow": (lambda: FaultPlan(links={"2-1": _DROP_ALL}), "links"),
    "links key naming node 0": (lambda: FaultPlan(links={"0->1": _DROP_ALL}), "links"),
    "links key '*->*'": (lambda: FaultPlan(links={"*->*": _DROP_ALL}), "links"),
    "node in two groups": (
        lambda: FaultPlan(partitions=(Partition(groups=((1, 2), (2, 3))),)),
        "partitions",
    ),
    "partition heals before it starts": (
        lambda: FaultPlan(partitions=(Partition(((1,), (2,)), start=1.0, heal=0.5),)),
        "partitions",
    ),
    "byzantine_rate above 1": (lambda: FaultPlan(byzantine_rate=2.5), "byzantine_rate"),
    "byzantine_rate below 0": (lambda: FaultPlan(byzantine_rate=-0.1), "byzantine_rate"),
    "negative reorder_hold": (lambda: FaultPlan(reorder_hold=-1.0), "reorder_hold"),
}


@pytest.mark.parametrize("row", sorted(MALFORMED))
def test_malformed_plan_is_refused_naming_the_field(row):
    build, field = MALFORMED[row]
    with pytest.raises(ConfigurationError, match=field):
        build()


def test_well_formed_plans_load():
    plan = FaultPlan(
        links={"2->1": _DROP_ALL, "3->*": _DROP_ALL, "*->4": _DROP_ALL},
        partitions=(Partition(((1, 2), (3, 4)), start=0.5, heal=1.0),),
        byzantine=(3,),
        byzantine_rate=0.5,
        reorder_hold=0.0,
    )
    assert plan.link(2, 1) is plan.link(3, 1) is plan.link(1, 4) is _DROP_ALL
    assert plan.link(1, 2) is plan.default


STRANGERS = {
    "links source": FaultPlan(links={"5->1": _DROP_ALL}),
    "links destination": FaultPlan(links={"*->9": _DROP_ALL}),
    "partition member": FaultPlan(partitions=(Partition(((1, 2), (3, 7))),)),
    "byzantine node 0": FaultPlan(byzantine=(0,)),
    "byzantine node 5": FaultPlan(byzantine=(5,)),
}


@pytest.mark.parametrize("row", sorted(STRANGERS))
def test_local_cluster_refuses_a_node_it_does_not_have(row):
    with pytest.raises(ConfigurationError, match=r"outside 1\.\.4"):
        LocalCluster({}, parties=4, fault_plan=STRANGERS[row])


def test_local_cluster_takes_a_plan_within_its_nodes():
    plan = FaultPlan(
        links={"4->1": _DROP_ALL},
        partitions=(Partition(((1,), (2, 3, 4))),),
        byzantine=(2,),
    )
    LocalCluster({}, parties=4, fault_plan=plan)
