"""Tests for the MPI-like API and broadcast algorithms, including the
closed-form-vs-event-driven cross-validation."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.placement import place_processes
from repro.cluster.presets import kishimoto_cluster
from repro.errors import SimulationError
from repro.simnet.api import SimCommWorld
from repro.simnet.collectives import (
    binomial_delivery_times,
    ring_busy_times,
    ring_delivery_times,
    ring_delivery_times_cyclic,
    run_binomial_bcast,
    run_ring_bcast,
)
from repro.simnet.transport import Transport

KINDS = ("athlon", "pentium2")


def make_world(p1, m1, p2, m2):
    spec = kishimoto_cluster()
    config = ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))
    slots = place_processes(spec, config)
    return SimCommWorld(Transport(spec, slots))


class TestPointToPoint:
    def test_send_recv_payload(self):
        world = make_world(1, 1, 1, 1)
        got = []

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=1024, payload="panel")
            else:
                message = yield from comm.recv(0)
                got.append(message.payload)

        world.run(program)
        assert got == ["panel"]

    def test_send_time_matches_link_model(self):
        world = make_world(1, 1, 1, 1)
        nbytes = 100_000.0
        expected = world.transport.message_time(0, 1, nbytes)

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=nbytes)
            else:
                yield from comm.recv(0)

        finish = world.run(program)
        assert finish[1] == pytest.approx(expected)

    def test_send_to_self_rejected(self):
        world = make_world(1, 2, 0, 0)

        def program(comm):
            yield from comm.send(comm.rank, nbytes=1)

        with pytest.raises(SimulationError):
            world.run(program, ranks=[0])

    def test_deadlock_reported_with_ranks(self):
        world = make_world(1, 1, 1, 1)

        def program(comm):
            yield from comm.recv((comm.rank + 1) % comm.size)

        with pytest.raises(SimulationError, match="deadlock"):
            world.run(program)


class TestBarrier:
    def test_barrier_completes_for_all(self):
        world = make_world(1, 2, 4, 1)

        def program(comm):
            yield from comm.barrier()

        finish = world.run(program)
        assert len(finish) == 6
        assert max(finish.values()) > 0


class TestRingBroadcast:
    @pytest.mark.parametrize("root", [0, 3, 8])
    def test_matches_closed_form_store_and_forward(self, root):
        world = make_world(1, 1, 8, 1)
        nbytes = 50_000.0
        finish = run_ring_bcast(world, root, nbytes)
        hops = world.transport.ring_hop_times(nbytes)
        delivery = ring_delivery_times(hops, root=root, pipeline_factor=1.0)
        p = world.size
        for rank in range(p):
            distance = (rank - root) % p
            if distance == 0:
                continue  # root's finish time includes only its send
            # Non-final ranks finish after forwarding; the last rank
            # finishes at its delivery time.
            if distance == p - 1:
                assert finish[rank] == pytest.approx(delivery[rank])
            else:
                assert finish[rank] >= delivery[rank] - 1e-12

    def test_all_ranks_receive_payload(self):
        world = make_world(1, 2, 2, 1)
        got = {}

        def program(comm):
            payload = yield from comm.bcast_ring(0, 1024, payload="block")
            got[comm.rank] = payload

        world.run(program)
        assert got == {r: "block" for r in range(world.size)}


class TestBinomialBroadcast:
    def test_all_ranks_receive(self):
        world = make_world(1, 1, 8, 1)
        finish = run_binomial_bcast(world, 0, 10_000.0)
        assert len(finish) == 9

    def test_binomial_faster_than_ring_for_many_ranks(self):
        world_ring = make_world(1, 1, 8, 1)
        world_tree = make_world(1, 1, 8, 1)
        nbytes = 100_000.0
        ring_finish = max(run_ring_bcast(world_ring, 0, nbytes).values())
        tree_finish = max(run_binomial_bcast(world_tree, 0, nbytes).values())
        assert tree_finish < ring_finish

    def test_delivery_rounds_formula(self):
        times = binomial_delivery_times(1.0, 8)
        # v receives in round ceil(log2(size)) - trailing_zeros(v)
        assert times.tolist() == [0, 3, 2, 3, 1, 3, 2, 3]

    def test_rotated_root(self):
        times = binomial_delivery_times(2.0, 4, root=2)
        assert times[2] == 0.0
        # v=2 (rank 0) has one trailing zero: round 2 - 1 = 1
        assert times[0] == pytest.approx(2.0)
        # odd v receive last (round 2)
        assert times[3] == pytest.approx(4.0)

    def test_formula_matches_event_driven_uniform_hops(self):
        # Same-CPU links have uniform cost; compare the closed form against
        # the event engine on a 4-process single-CPU ring.
        world = make_world(1, 4, 0, 0)
        nbytes = 8192.0
        hop = world.transport.message_time(0, 1, nbytes)
        finish = run_binomial_bcast(world, 0, nbytes)
        formula = binomial_delivery_times(hop, 4)
        # Leaves finish exactly at their delivery time.
        for v in (1, 3):
            assert finish[v] == pytest.approx(formula[v])


class TestClosedForms:
    def test_delivery_is_cumsum_for_full_pipeline(self):
        hops = [1.0, 2.0, 3.0, 4.0]
        delivery = ring_delivery_times(hops, root=0, pipeline_factor=1.0)
        assert delivery.tolist() == [0.0, 1.0, 3.0, 6.0]

    def test_pipeline_factor_discounts_downstream_hops(self):
        hops = [1.0, 1.0, 1.0, 1.0]
        delivery = ring_delivery_times(hops, root=0, pipeline_factor=0.5)
        assert delivery.tolist() == [0.0, 1.0, 1.5, 2.0]

    def test_zero_pipeline_means_single_hop_wait(self):
        hops = [2.0] * 5
        delivery = ring_delivery_times(hops, root=1, pipeline_factor=0.0)
        assert delivery[1] == 0.0
        assert all(delivery[(1 + d) % 5] == pytest.approx(2.0) for d in range(1, 5))

    def test_root_rotation_uses_correct_edges(self):
        hops = [1.0, 10.0, 100.0]
        delivery = ring_delivery_times(hops, root=1, pipeline_factor=1.0)
        # root 1 -> rank 2 via edge 1 (10), rank 2 -> rank 0 via edge 2 (100)
        assert delivery[1] == 0.0
        assert delivery[2] == pytest.approx(10.0)
        assert delivery[0] == pytest.approx(110.0)

    def test_busy_times_skip_last_rank(self):
        hops = [1.0, 2.0, 3.0]
        busy = ring_busy_times(hops, root=0)
        assert busy[0] == 1.0 and busy[1] == 2.0 and busy[2] == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            ring_delivery_times([], root=0)
        with pytest.raises(SimulationError):
            ring_delivery_times([1.0], root=5)
        with pytest.raises(SimulationError):
            ring_delivery_times([1.0, 1.0], root=0, pipeline_factor=1.5)
        with pytest.raises(SimulationError):
            binomial_delivery_times(-1.0, 4)

    def test_single_rank_ring(self):
        assert ring_delivery_times([0.5], root=0).tolist() == [0.0]


class TestBatchedClosedForm:
    """The panel sweep's form: step ``k`` of every sweep rooted at ``k % P``."""

    def test_bitwise_equal_to_scalar_per_row(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for p in (2, 3, 7, 14):
            steps = 3 * p
            hops = rng.uniform(0.001, 1.0, size=(2, p, steps))
            for factor in (0.0, 0.45, 1.0):
                batch = ring_delivery_times_cyclic(hops, pipeline_factor=factor)
                for sweep in range(2):
                    for k in range(steps):
                        scalar = ring_delivery_times(
                            hops[sweep, :, k], root=k % p, pipeline_factor=factor
                        )
                        assert np.array_equal(batch[sweep, :, k], scalar), (p, k, factor)

    def test_one_dimensional_hops_broadcast(self):
        import numpy as np

        hops = np.array([1.0, 2.0, 3.0])
        # one ring's costs, broadcast (zero-stride) over every step
        batch = ring_delivery_times_cyclic(np.broadcast_to(hops[:, None], (3, 6)))
        for k in range(6):
            assert np.array_equal(batch[:, k], ring_delivery_times(hops, root=k % 3))

    def test_single_rank_and_validation(self):
        import numpy as np

        assert ring_delivery_times_cyclic([[0.5]]).tolist() == [[0.0]]
        with pytest.raises(SimulationError):
            ring_delivery_times_cyclic(np.ones((3, 4)))  # steps not a multiple of P
        with pytest.raises(SimulationError):
            ring_delivery_times_cyclic(np.ones(3))  # no step axis
        with pytest.raises(SimulationError):
            ring_delivery_times_cyclic(np.ones((3, 3)), pipeline_factor=2.0)
