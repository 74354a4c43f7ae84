"""Property: network-only degradation never fences a node.

The heartbeat monitor watches OS liveness, not the data network — so a
fault plan containing nothing but link loss and latency jitter (however
severe, on whichever links) must never drive a healthy node to FENCED,
even while the middleware is actively switching nodes between OSes.
False fences would evict running jobs for no reason; this pins the
monitor's specificity the way the E14 storm pins its sensitivity.
"""

from hypothesis import given, settings, strategies as st

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.faults import FaultInjector, FaultPlan, LinkFault
from repro.health import HealthState
from repro.sched import JobRequest
from repro.simkernel import MINUTE


def _run_with_network_faults(seed, loss_prob, jitter_s, hit_compute_links):
    hybrid = build_hybrid_cluster(
        num_nodes=2, seed=seed, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=5 * MINUTE),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    sim = hybrid.sim
    cluster = hybrid.cluster
    t0 = sim.now

    heads = (cluster.linux_head.name, cluster.windows_head.name)
    pairs = [heads]
    if hit_compute_links:
        pairs += [(node.name, head)
                  for node in cluster.compute_nodes for head in heads]
    plan = FaultPlan(
        name="net-degraded",
        link_faults=tuple(
            LinkFault(src=src, dst=dst, loss_prob=loss_prob,
                      jitter_s=jitter_s, start_s=t0)
            for src, dst in pairs
        ),
    )
    injector = FaultInjector(
        sim, cluster.network, cluster.rng, plan,
        control=hybrid.daemons,
        nodes={n.name: n for n in cluster.compute_nodes},
        env=cluster.env,
        tracer=hybrid.tracer,
    )
    injector.arm()

    # demand work on both OSes so the control loop actually reboots nodes
    # mid-degradation — planned downtime must stay fence-immune too
    hybrid.submit(
        "windows", JobRequest(name="winP", cores=4, runtime_s=8 * MINUTE)
    )
    sim.run(until=t0 + 40 * MINUTE)
    hybrid.finalize()
    return hybrid


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    loss_prob=st.floats(min_value=0.0, max_value=0.95),
    jitter_s=st.floats(min_value=0.0, max_value=30.0),
    hit_compute_links=st.booleans(),
)
def test_loss_and_jitter_never_fence_a_healthy_node(
        seed, loss_prob, jitter_s, hit_compute_links):
    hybrid = _run_with_network_faults(
        seed, loss_prob, jitter_s, hit_compute_links)
    health = hybrid.health
    assert health is not None
    assert health.fences == 0
    for node in hybrid.cluster.compute_nodes:
        assert health.health(node.name).state is not HealthState.FENCED
    # and nobody's jobs were evicted by a phantom fence
    assert hybrid.pbs.requeues == 0
    assert hybrid.winhpc.requeues == 0
