"""Tests for :mod:`repro.sim.errors`: the at-issue failure discipline.

The engine's contract is that a structurally bad message fails at the
offending ``send``/``send_all``/``forward`` call -- with a message
naming the function id or the malformed element -- rather than
surfacing rounds later as an opaque unpacking error; and that a drained
livelock names the op and the pending handlers.
"""

from __future__ import annotations

import pytest

from repro.sim.errors import (
    DeliveryTimeout,
    InvalidBatchError,
    LivelockError,
    LocalMemoryExceeded,
    MalformedMessageError,
    ModuleCrashed,
    SharedMemoryExceeded,
    SimulationError,
    UnknownHandlerError,
)
from repro.ops import Columns, run_batch
from repro.sim.chaos import FaultPlan, FaultSpec
from repro.sim.machine import PIMMachine, ReferencePIMMachine


def _echo(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        bct.reply(mid, x, tag)


def _spin(bct, chunks):
    for mid, (x,), _tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        bct.sent[mid] += 1
        bct.stage_rows("spin", [((mid + 1) % bct.num_modules, (x,),
                                 None, 1)])


def _machine(chunked: bool = False) -> PIMMachine:
    """``echo`` on the engine, or on the reference oracle (its chunks
    unstaged into slots when a round runs)."""
    machine = (PIMMachine if chunked else ReferencePIMMachine)(
        num_modules=4, seed=0)
    machine.register("echo", _echo)
    return machine


class TestHierarchy:
    def test_all_simulator_errors_share_a_base(self):
        for exc in (SharedMemoryExceeded, LocalMemoryExceeded,
                    UnknownHandlerError, MalformedMessageError,
                    LivelockError, InvalidBatchError,
                    ModuleCrashed, DeliveryTimeout):
            assert issubclass(exc, SimulationError)
        assert issubclass(SimulationError, RuntimeError)

    def test_chaos_errors_carry_typed_fields(self):
        crashed = ModuleCrashed("module 3 is fail-stopped", mid=3)
        assert crashed.mid == 3
        assert "fail-stopped" in str(crashed)
        timeout = DeliveryTimeout("gave up", op="batch_get",
                                  attempts=8, undelivered=2)
        assert (timeout.op, timeout.attempts, timeout.undelivered) == \
            ("batch_get", 8, 2)
        # One except clause catches both: the recovery layer's contract.
        for exc in (crashed, timeout):
            try:
                raise exc
            except (ModuleCrashed, DeliveryTimeout) as caught:
                assert caught is exc


class TestUnknownHandlerAtIssue:
    def test_send_raises_before_any_round_runs(self):
        machine = _machine()
        with pytest.raises(UnknownHandlerError, match="'nope'"):
            machine.send(0, "nope", (1,))
        # The failure happened at issue: nothing was staged, no round ran.
        assert machine.metrics.rounds == 0
        assert machine.drain() == []

    def test_send_all_names_the_bad_function_id(self):
        machine = _machine()
        with pytest.raises(UnknownHandlerError) as ei:
            machine.send_all([(0, "echo", (1,), None),
                              (1, "missing_fn", (2,), None)])
        assert "missing_fn" in str(ei.value)
        assert "send time" in str(ei.value)

    def test_send_cols_is_cpu_issued(self):
        machine = _machine()
        with pytest.raises(UnknownHandlerError, match="send time"):
            machine.send_cols("missing_fn", [0], ([1],))
        assert not machine.pending

    def test_broadcast_raises_at_issue(self):
        machine = _machine()
        with pytest.raises(UnknownHandlerError, match="ghost"):
            machine.broadcast("ghost")
        assert machine.metrics.rounds == 0

    def test_forward_raises_at_forward_time(self):
        machine = _machine()

        def bad_forwarder(bct, chunks):
            for mid, (x,), _tag, _size in bct.rows(chunks):
                bct.stage_rows("not_registered", [((mid + 1) % 4, (x,),
                                                   None, 1)])

        machine.register("bad_forwarder", bad_forwarder)
        machine.send(0, "bad_forwarder", (1,))
        with pytest.raises(UnknownHandlerError, match="forward time"):
            machine.drain()

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("dest", [-1, 4])
    def test_forward_to_a_bad_module_id_rejected(self, chunked, dest):
        """A body forwarding outside ``[0, P)`` raises ``ValueError`` on
        the engine and on the oracle alike, before anything is staged:
        module -1 does not run as module P - 1, and P is not a bare
        ``IndexError`` in the middle of the round."""
        machine = _machine(chunked)

        def bad_forwarder(bct, chunks):
            for mid, _args, _tag, _size in bct.rows(chunks):
                bct.stage_rows("echo", [(0, (1,), None, 1),
                                        (dest, (2,), None, 1)])

        machine.register("bad_forwarder", bad_forwarder)
        machine.send(0, "bad_forwarder", ())
        with pytest.raises(ValueError, match=f"bad module id {dest}"):
            machine.step()
        assert not machine.pending
        assert machine._active == [] and not any(machine._recv)

    def test_register_then_send_succeeds(self):
        machine = _machine()
        machine.send(2, "echo", (21,))
        assert [r.payload for r in machine.drain()] == [21]


class TestMalformedMessages:
    def test_wrong_arity_names_expected_shape(self):
        machine = _machine()
        with pytest.raises(MalformedMessageError) as ei:
            machine.send_all([(0, "echo", (1,))])
        msg = str(ei.value)
        assert "3 elements" in msg
        assert "(dest, fn, args, tag)" in msg

    def test_bad_size_type_rejected(self):
        machine = _machine()
        for bad in (0, -2, 1.5, "3"):
            with pytest.raises(MalformedMessageError, match="size"):
                machine.send_all([(0, "echo", (1,), None, bad)])

    @pytest.mark.parametrize("path", ["slots", "chunks", "send_cols"])
    def test_send_and_broadcast_reject_what_send_all_rejects(self, path):
        machine = _machine(chunked=path != "slots")
        for bad in (0, -3, 1.5, "3", True):
            if path == "send_cols":
                with pytest.raises(MalformedMessageError, match="size"):
                    machine.send_cols("echo", [1], ([1],), size=bad)
                continue
            with pytest.raises(MalformedMessageError, match="size"):
                machine.send(1, "echo", (1,), size=bad)
            with pytest.raises(MalformedMessageError, match="size"):
                machine.broadcast("echo", (1,), size=bad)
        # Rejected at issue: nothing was staged, so no task runs and the
        # round accounting has nothing to miss.
        assert machine.drain() == []
        assert machine.tasks_executed == 0
        assert machine.metrics.messages == 0

    def test_bad_module_id_rejected(self):
        machine = _machine()
        with pytest.raises(ValueError, match="bad module id"):
            machine.send(99, "echo", (1,))
        with pytest.raises(ValueError, match="bad module id"):
            machine.send_all([(99, "echo", (1,), None)])
        with pytest.raises(ValueError, match="bad module id -1"):
            machine.send(-1, "echo", (1,))
        with pytest.raises(ValueError, match="bad module id -1"):
            machine.send_all([(-1, "echo", (1,), None)])
        # The column form's count of its destinations is its bounds
        # check: nothing is staged for an id outside ``[0, P)``, on the
        # engine or on the oracle.
        for chunked in (False, True):
            machine = _machine(chunked)
            with pytest.raises(ValueError, match="bad module id 99"):
                machine.send_cols("echo", [0, 99], ([1, 2],))
            with pytest.raises(ValueError, match="bad module id -1"):
                machine.send_cols("echo", [0, -1], ([1, 2],))
            assert not machine.pending
            assert machine._active == [] and not any(machine._recv)

    @pytest.mark.parametrize("chunked", [False, True])
    def test_column_of_the_wrong_length_rejected(self, chunked):
        """``zip`` would cut the messages at the short column while the
        receive accounting counts ``dests``: four units and four tasks
        on the books, two tasks run.  Rejected at issue / construction,
        nothing staged; under a fault plan nothing wrapped either."""
        machine = _machine(chunked)
        dests, cols = [0, 1, 2, 3], ([10, 11, 12, 13], [20, 21])
        with pytest.raises(MalformedMessageError, match=r"\[4, 2\]"):
            machine.send_cols("echo", dests, cols)
        with pytest.raises(MalformedMessageError, match="column"):
            machine.send_cols("echo", dests, ())
        assert not machine.pending
        assert machine._active == [] and not any(machine._recv)
        assert machine._incoming_total == 0
        assert machine.drain() == [] and machine.tasks_executed == 0

        with pytest.raises(MalformedMessageError, match=r"\[4, 2\]"):
            Columns("echo", dests, cols)

        def stage():
            yield [Columns("echo", dests, cols)]

        machine.install_fault_plan(FaultPlan(FaultSpec(), seed=0))
        with pytest.raises(MalformedMessageError):
            run_batch(machine, "stage", stage())
        assert not machine.pending and machine.metrics.messages == 0


class TestLivelockReport:
    def test_drain_names_op_label_and_handler(self):
        machine = _machine()
        machine.register("spin", _spin)
        machine.send(0, "spin", (1,))
        with pytest.raises(LivelockError) as ei:
            machine.drain(max_rounds=10, label="skiplist:batch_get")
        msg = str(ei.value)
        assert "skiplist:batch_get" in msg      # the originating op
        assert "spin" in msg                    # the spinning handler id
        assert "max_rounds=10" in msg
        assert "10 rounds" in msg

    def test_drain_without_label_omits_op_clause(self):
        machine = _machine()
        machine.register("spin", _spin)
        machine.send(0, "spin", (1,))
        with pytest.raises(LivelockError) as ei:
            machine.drain(max_rounds=5)
        assert "during op" not in str(ei.value)

    def test_quiescent_drain_does_not_raise(self):
        machine = _machine()
        machine.send(0, "echo", (1,))
        replies = machine.drain(max_rounds=10, label="ok")
        assert [r.payload for r in replies] == [1]
        assert machine.drain(max_rounds=0) == []


class TestMemoryErrors:
    def test_shared_memory_enforced(self):
        machine = PIMMachine(num_modules=4, seed=0,
                             shared_memory_words=8,
                             enforce_shared_memory=True)
        with pytest.raises(SharedMemoryExceeded):
            machine.cpu.alloc(9)

    def test_local_memory_enforced(self):
        machine = PIMMachine(num_modules=4, seed=0,
                             local_memory_words=4,
                             enforce_local_memory=True)
        with pytest.raises(LocalMemoryExceeded, match="module 0"):
            machine.modules[0].alloc_words(5)
