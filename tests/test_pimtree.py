"""PIM-tree conformance + mutation tests.

Three layers, mirroring how the structure earns trust:

- **basics/property** -- the tree against the sequential reference map
  over mixed batch streams, with the integrity sweep after every wave
  (leaf chain, directory, mirror parity, shadow parity).
- **conformance** -- the shared ``apply_batch`` surface through the
  differential driver, on the engine and on its reference oracle (the
  skip list rides along as the second implementation in every cell).
- **mutation** -- the registered ``pimtree_shadow_stale`` fault breaks
  shadow-subtree invalidation on purpose; the differ, the final-state
  check and the tree's own integrity sweep must all see it, and the
  fault must be a no-op on the skip list.
"""

import random

import pytest

from repro import PIMMachine
from repro.structures.pimtree import PIMTree
from repro.verify import adapters
from repro.verify.adapters import IMPLEMENTATIONS, ImplAdapter
from repro.verify.differ import verify_session
from repro.verify.faults import fault_names, get_fault, inject_fault
from repro.verify.fuzz import fuzz_session
from repro.workloads.sessions import Session, SessionBatch
from tests.conftest import ENGINES, ReferenceMap

BACKENDS = tuple(ENGINES)


def make_tree(p=8, seed=0, **kw):
    kw.setdefault("leaf_size", 4)
    kw.setdefault("fanout", 4)
    kw.setdefault("promote_threshold", 2)
    machine = PIMMachine(num_modules=p, seed=seed)
    return machine, PIMTree(machine, **kw)


class TestBasics:
    def test_build_and_point_reads(self):
        _, tree = make_tree()
        tree.build([(k, k * 10) for k in range(0, 40, 2)])
        assert tree.apply_batch("get", [0, 2, 3, 38]) == [0, 20, None, 380]
        tree.check_integrity()

    def test_successor_is_nonstrict(self):
        _, tree = make_tree()
        tree.build([(k, k) for k in range(0, 40, 2)])
        got = tree.apply_batch("successor", [10, 11, 38, 39])
        assert got == [(10, 10), (12, 12), (38, 38), None]

    def test_range_inclusive_ascending(self):
        _, tree = make_tree()
        tree.build([(k, k) for k in range(0, 40, 2)])
        out = tree.apply_batch("range", [(3, 11), (38, 100), (13, 13)])
        assert out == [[(4, 4), (6, 6), (8, 8), (10, 10)], [(38, 38)], []]

    def test_upsert_bootstrap_then_split(self):
        _, tree = make_tree()
        tree.apply_batch("upsert", [(k, k) for k in range(30)])
        assert tree.size == 30
        assert tree.apply_batch("get", list(range(30))) == list(range(30))
        tree.check_integrity()

    def test_delete_then_reads_on_empty_leaves(self):
        _, tree = make_tree()
        tree.build([(k, k) for k in range(20)])
        tree.apply_batch("delete", list(range(20)))
        assert tree.size == 0
        assert tree.apply_batch("get", [3]) == [None]
        assert tree.apply_batch("successor", [0]) == [None]
        assert tree.apply_batch("range", [(0, 99)]) == [[]]
        tree.check_integrity()

    def test_rebuild_refused(self):
        _, tree = make_tree()
        tree.build([(1, 1)])
        with pytest.raises(ValueError):
            tree.build([(2, 2)])

    def test_a_taken_name_is_refused(self):
        """A second tree of the same name on one machine would share the
        first one's leaves: building it over other keys broke the first
        tree's reads and its integrity sweep.  It is refused; a tree of
        another name shares the machine."""
        machine = PIMMachine(num_modules=4, seed=0)
        a = PIMTree(machine)
        a.build([(k, -k) for k in range(0, 200, 2)])
        before = machine.snapshot()
        with pytest.raises(ValueError, match="'pimtree' is taken"):
            PIMTree(machine)
        assert machine.delta_since(before).rounds == 0
        b = PIMTree(machine, name="other")
        b.build([(k, -k) for k in range(1, 40, 2)])
        assert a.batch_get([10, 11]) == [-10, None]
        assert b.batch_get([10, 11]) == [None, -11]
        a.check_integrity()
        b.check_integrity()

    def test_empty_payloads_short_circuit(self):
        machine, tree = make_tree()
        tree.build([(1, 1)])
        before = machine.snapshot()
        assert tree.apply_batch("get", []) == []
        assert tree.apply_batch("upsert", []) is None
        assert machine.delta_since(before).rounds == 0

    def test_empty_batches_run_nothing(self):
        """Each empty batch call -- the ``batch_*`` methods, the uniform
        dispatch, an all-empty group -- runs no op: no charge of any
        metric (CPU depth included) and nothing reported to the batch
        observer."""
        machine, tree = make_tree()
        tree.build([(k, k) for k in range(0, 40, 2)])
        ops = []
        machine.batch_observer = lambda name, _delta: ops.append(name)
        before = machine.snapshot()
        assert tree.batch_get([]) == []
        assert tree.batch_successor([]) == []
        assert tree.batch_range([]) == []
        assert tree.batch_upsert([]) is None
        assert tree.batch_delete([]) is None
        for op in ("get", "successor", "range"):
            assert tree.apply_batch(op, []) == []
        for op in ("upsert", "delete"):
            assert tree.apply_batch(op, []) is None
        assert tree.apply_group([("upsert", []), ("get", []),
                                 ("range", [])]) == [None, [], []]
        assert machine.snapshot() == before and ops == []
        assert tree.apply_group([("upsert", [(3, 30)]), ("get", []),
                                 ("successor", [3])]) \
            == [None, [], [(3, 30)]]
        assert ops == ["pimtree:batch_upsert"]

    def test_push_and_pull_branches_both_taken(self):
        """A funnel batch pulls (one message per level); a spread batch
        pushes.  Both must answer identically to the reference."""
        _, tree = make_tree(p=8, leaf_size=4, fanout=4)
        items = [(k, k) for k in range(0, 400, 10)]
        tree.build(items)
        funnel = [1, 2, 3, 4, 5, 6, 7, 8]     # all inside one leaf's gap
        spread = list(range(5, 400, 50))       # one query per subtree
        ref = ReferenceMap(items)
        for batch in (funnel, spread):
            assert tree.apply_batch("successor", batch) == \
                ref.apply_batch("successor", batch)
        assert tree.stats["pull_msgs"] > 0
        assert tree.stats["push_msgs"] > 0


class TestPropertyMixed:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_stream_matches_reference(self, seed):
        machine, tree = make_tree(p=8, seed=seed)
        rng = random.Random(seed)
        items = sorted((rng.randrange(500), rng.randrange(100))
                       for _ in range(40))
        items = list(dict(items).items())
        tree.build(items)
        ref = ReferenceMap(items)
        for wave in range(10):
            op = rng.choice(["get", "successor", "range", "upsert",
                             "delete"])
            if op == "upsert":
                payload = [(rng.randrange(500), wave * 100 + i)
                           for i in range(rng.randrange(1, 8))]
            elif op == "range":
                lo = rng.randrange(500)
                payload = [(lo, lo + rng.randrange(80))
                           for _ in range(rng.randrange(1, 4))]
            else:
                payload = [rng.randrange(500)
                           for _ in range(rng.randrange(1, 8))]
            assert tree.apply_batch(op, payload) == \
                ref.apply_batch(op, payload), (seed, wave, op)
            tree.check_integrity()


class TestConformance:
    """The shared surface, via the differential driver: every cell runs
    the skip list and the PIM-tree against the oracle with round
    envelopes, then the mutated-rerun checks the differ layers on."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_differ_cell(self, backend, monkeypatch):
        # Every adapter builds its machine as ``adapters.PIMMachine``;
        # the "object" cells run the whole session on the oracle.
        monkeypatch.setattr(adapters, "PIMMachine", ENGINES[backend])
        session = fuzz_session(11, num_batches=8, batch_size=16)
        report = verify_session(session, impls=["skiplist", "pimtree"],
                                check_backends=False)
        assert report.ok, [str(d) for d in report.violations]

    def test_pimtree_registered(self):
        assert "pimtree" in IMPLEMENTATIONS

    def test_metric_stream_identical_across_backends(self):
        """The tree's per-batch metric stream must be bit-identical on
        the reference oracle and the engine (the golden-metrics
        contract)."""
        session = fuzz_session(5, num_batches=10, batch_size=16)
        streams = {}
        for backend in BACKENDS:
            machine = ENGINES[backend](num_modules=8, seed=session.seed)
            tree = PIMTree(machine, leaf_size=4, fanout=4,
                           promote_threshold=2)
            tree.build([(k, k) for k in session.initial_keys])
            stream = []
            for batch in session.batches:
                before = machine.snapshot()
                tree.apply_batch(batch.op, batch.payload)
                stream.append(machine.delta_since(before).as_dict())
            streams[backend] = stream
        assert streams["object"] == streams["columnar"]


def _stale_shadow_session() -> Session:
    """A session whose replay promotes a shadow subtree, splits a leaf
    under it, then reads the moved keys -- the exact stream on which
    broken invalidation turns into wrong answers.

    Geometry (differ adapter: leaf_size=4, fanout=4, promote=2): 40
    keys 10..400 make ten leaves under three interior nodes; the hot
    batch funnels four distinct keys through the first interior node
    twice (two pulls -> promotion), the upsert splits that node's first
    leaf (moving keys 20/30/40 to a fresh leaf), and the final gets
    route through the -- now stale -- module replicas.
    """
    hot = [10, 50, 90, 130]
    return Session(
        batches=[
            SessionBatch("get", list(hot)),
            SessionBatch("get", list(hot)),
            SessionBatch("upsert", [(11, 1), (12, 2), (13, 3), (14, 4),
                                    (15, 5), (16, 6)]),
            SessionBatch("get", [14, 20, 30, 40]),
        ],
        initial_keys=[10 * i for i in range(1, 41)],
        seed=9901,
    )


class TestShadowStaleMutation:
    def test_fault_is_registered_as_storage_level(self):
        assert "pimtree_shadow_stale" in fault_names("storage")
        assert get_fault("pimtree_shadow_stale").level == "storage"

    def test_stale_shadow_serves_wrong_reads(self):
        """Direct replay of the crafted stream: with invalidation off,
        the promoted replica routes moved keys to their old leaf."""
        machine, tree = make_tree(p=8, seed=9901)
        session = _stale_shadow_session()
        tree.build([(k, k) for k in session.initial_keys])
        inject_fault(ImplAdapter("pimtree", tree, machine),
                     "pimtree_shadow_stale")
        for batch in session.batches[:-1]:
            tree.apply_batch(batch.op, batch.payload)
        assert tree.shadows, "the hot batches must promote a shadow"
        got = tree.apply_batch("get", session.batches[-1].payload)
        assert got != [4, 20, 30, 40]  # live keys answered wrongly
        with pytest.raises(AssertionError):
            tree.check_integrity()  # replica != mirror

    def test_clean_replay_of_the_same_session_is_correct(self):
        machine, tree = make_tree(p=8, seed=9901)
        session = _stale_shadow_session()
        tree.build([(k, k) for k in session.initial_keys])
        for batch in session.batches[:-1]:
            tree.apply_batch(batch.op, batch.payload)
        assert tree.shadows
        assert tree.apply_batch("get", session.batches[-1].payload) == \
            [4, 20, 30, 40]
        tree.check_integrity()

    def test_differ_catches_broken_invalidation(self):
        session = _stale_shadow_session()
        report = verify_session(session, impls=["pimtree"],
                                fault=("pimtree", "pimtree_shadow_stale"))
        assert not report.ok
        kinds = {d.kind for d in report.violations}
        assert "result" in kinds, [str(d) for d in report.violations]

    def test_clean_session_verifies(self):
        report = verify_session(_stale_shadow_session(), impls=["pimtree"])
        assert report.ok, [str(d) for d in report.violations]

    def test_fault_is_noop_on_the_skiplist(self):
        session = _stale_shadow_session()
        report = verify_session(session, impls=["skiplist"],
                                fault=("skiplist", "pimtree_shadow_stale"))
        assert report.ok, [str(d) for d in report.violations]
