"""The differential driver: replay one session against every implementation.

For each batch of a session the driver:

1. asks the :class:`~repro.verify.oracle.SequentialOracle` for the
   expected result (mutating the oracle's state in payload order);
2. replays the batch through every live implementation's uniform
   ``apply_batch`` surface and compares observable results;
3. checks the skip list's metamorphic cost invariants: per-batch round
   counts within generous paper envelopes, and -- against a twin skip
   list built from the same seed that answers every read batch split in
   two halves -- result equivalence and cost monotonicity under batch
   splitting (the split replay can never be *cheaper* in rounds or IO,
   and must return the same answers).

After the last batch every implementation's full state (one inclusive
range over the session's key universe) is compared against the oracle,
the skip list's structural invariants are asserted, and the whole
session is replayed once more on a fresh machine to check that the
per-op metric stream -- collected through the op pipeline's
``batch_observer`` hook -- is bit-identical across reruns of the same
seed.  One further solo replay per implementation with batch handlers
(the skip list and the PIM-tree) pins the engine axis: on the *per-task
reference oracle* (the engine's array-native rounds vs the scalar loop,
:class:`~repro.sim.machine.ReferencePIMMachine`), which must reproduce
the primary run's results and metric stream bit-for-bit.

With ``read_groups`` the unit of replay is a *step*
(:func:`session_steps`): runs of consecutive batches that form one of
an implementation's declared ``TICK_GROUPS`` go to it as one
``apply_group`` call, and every check above runs over the same steps.

Divergences are collected as the report's violations, not raised: the
driver is also the shrinker's test function, and a shrinker needs "still
failing?" as a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.skiplist import READ_OPS
from repro.recovery.manager import MUTATING_OPS
from repro.sim.metrics import MetricsDelta
from repro.verify.adapters import (
    CROSS_ENGINE_IMPLS,
    DEFAULT_IMPLS,
    ImplAdapter,
    build_implementations,
    reference_adapter,
)
from repro.verify.certificate import Certificate
from repro.verify.fuzz import initial_items_for
from repro.verify.oracle import SequentialOracle
from repro.verify.shrink import session_to_dict
from repro.workloads.sessions import Session


@dataclass
class Divergence:
    """One observed disagreement, pinned to a batch and implementation."""

    seed: int
    batch_index: int  # -1 for session-level checks (final state, rerun)
    op: str
    impl: str
    kind: str  # result | final_state | integrity | determinism |
    #            rounds_envelope | split_result | split_monotonicity |
    #            container | crash | backend
    detail: str

    def __str__(self) -> str:
        where = (f"batch {self.batch_index} ({self.op})"
                 if self.batch_index >= 0 else "session")
        return (f"[{self.kind}] impl={self.impl} seed={self.seed} "
                f"{where}: {self.detail}")


@dataclass
class SessionReport(Certificate):
    """Everything the driver observed while replaying one session."""

    seed: int
    num_modules: int
    impls: Tuple[str, ...]
    num_batches: int
    violations: List[Divergence] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    retired: Dict[str, int] = field(default_factory=dict)  # impl -> batch
    observed_ops: int = 0  # pipeline batch_observer events on the skip list

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.violations)} divergence(s)"
        retired = (f", retired: {sorted(self.retired)}" if self.retired
                   else "")
        return (f"seed={self.seed}: {self.num_batches} batches x "
                f"{len(self.impls)} impls -> {state}{retired}")


# ----------------------------------------------------------------------
# round envelopes (per implementation)
# ----------------------------------------------------------------------

def rounds_envelope(op: str, batch_len: int, num_modules: int,
                    n_keys: int, result_size: int = 0) -> int:
    """Generous per-batch round budgets for the paper's structure.

    The theorems give O(1) rounds for Get/Update and O(log P)-flavored
    round counts for the search-based ops; these budgets sit ~2x above
    the measured maxima across the fuzz seed corpus, so they catch a
    round-structure regression (a stage turning into a per-element
    loop) without tripping on whp tail noise.  Range collection rounds
    grow with the number of elements returned, so the range budget
    takes ``result_size`` (total elements across the batch's ops).
    """
    log_p = max(1, math.ceil(math.log2(num_modules + 1)))
    log_b = max(1, math.ceil(math.log2(batch_len + 2)))
    log_n = max(1, math.ceil(math.log2(n_keys + 2)))
    if op == "get":
        return 8
    if op == "upsert":
        return 24 + 10 * log_b + 4 * log_p
    if op == "delete":
        return 24 + 10 * log_b + 4 * log_p
    if op == "successor":
        return 24 + 10 * (log_p + log_b)
    if op == "range":
        return 48 + 6 * (log_p + log_n) + 2 * result_size
    return 10_000


def pimtree_rounds_envelope(op: str, batch_len: int, num_modules: int,
                            n_keys: int, result_size: int = 0) -> int:
    """Per-batch round budgets for the PIM-tree.

    Every op descends O(height) = O(log n) levels (each level one
    push/pull stage) plus at most one shadow-promotion broadcast, then
    spends a constant number of leaf stages -- except Range, whose
    chained leaf scans advance frontier-parallel, one stage per hop, so
    its budget grows with the elements returned (half-full leaves make
    the hop count ~result/2 in the worst case).  Budgets sit ~2x above
    the measured maxima across the fuzz seed corpus, like the skip
    list's.
    """
    log_b = max(1, math.ceil(math.log2(batch_len + 2)))
    log_n = max(1, math.ceil(math.log2(n_keys + 2)))
    if op == "get":
        return 12 + 4 * log_n
    if op == "successor":
        return 18 + 4 * log_n
    if op == "upsert":
        return 24 + 4 * log_n + 2 * log_b
    if op == "delete":
        return 16 + 4 * log_n
    if op == "range":
        return 24 + 4 * log_n + 3 * result_size
    return 10_000


#: Implementations with calibrated per-op round envelopes; the driver
#: checks every batch of each against its budget.
ENVELOPE_FNS = {
    "skiplist": rounds_envelope,
    "pimtree": pimtree_rounds_envelope,
}


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def verify_session(session: Session,
                   impls: Optional[Sequence[str]] = None,
                   num_modules: int = 8, *,
                   check_metamorphic: bool = True,
                   check_determinism: bool = True,
                   check_backends: bool = True,
                   read_groups: bool = False,
                   fault: Optional[Tuple[str, str]] = None,
                   ) -> SessionReport:
    """Differentially replay ``session``; returns the full report.

    With ``read_groups`` the replay steps are :func:`session_steps`'s,
    per implementation: runs of consecutive batches inside one of its
    ``TICK_GROUPS`` (the skip list's Upsert + Successor, the PIM-tree's
    three reads) reach it as one ``apply_group`` call -- what a grouped
    tick of ``repro serve`` sends -- and every check below covers that
    path: each sub-batch against the oracle, the determinism rerun and
    the cross-engine replay over the same steps.

    ``fault`` optionally injects a named fault (see
    :mod:`repro.verify.faults`) into one implementation's adapter --
    the mutation-testing hook that proves the verifier can see.

    With ``check_backends`` (the default) the session is replayed once
    more, for the skip list and for the PIM-tree, on the per-task
    reference oracle (:class:`~repro.sim.machine.ReferencePIMMachine`);
    the read results must match the sequential oracle and the per-op
    metric stream must be bit-identical to the primary run's -- the
    certification that the engine's array-native rounds and the scalar
    loop are observationally equivalent.
    """
    names = tuple(impls) if impls is not None else DEFAULT_IMPLS
    items = initial_items_for(session)
    report = SessionReport(
        seed=session.seed, num_modules=num_modules, impls=names,
        num_batches=len(session.batches),
        config=dict(session_to_dict(session), kind="differential",
                    impls=impls and list(impls), num_modules=num_modules,
                    read_groups=read_groups,
                    check_metamorphic=check_metamorphic,
                    check_determinism=check_determinism,
                    check_backends=check_backends))
    oracle = SequentialOracle(items)
    adapters = build_implementations(names, seed=session.seed, items=items,
                                     num_modules=num_modules)
    if fault is not None:
        from repro.verify.faults import inject_fault
        impl_name, fault_name = fault
        for a in adapters:
            if a.name == impl_name:
                inject_fault(a, fault_name)
                break
        else:
            raise ValueError(f"fault target {impl_name!r} not in {names}")

    # The metamorphic twin: same seed, same machine draw -> its structure
    # evolves bit-identically, so split-vs-whole costs are comparable.
    twin = None
    if check_metamorphic and "skiplist" in names:
        twin = build_implementations(["skiplist"], seed=session.seed,
                                     items=items,
                                     num_modules=num_modules)[0]

    # Per-op metric streams, via the pipeline driver's batch_observer
    # hook (nested ops included): the skip list's also feeds the
    # determinism rerun, each one its cross-engine replay.
    observed = [a for a in adapters
                if a.name in CROSS_ENGINE_IMPLS and a.machine is not None]
    streams: Dict[str, List[Tuple[str, MetricsDelta]]] = {}
    for adapter in observed:
        stream = streams[adapter.name] = []
        adapter.machine.batch_observer = \
            lambda op_name, delta, out=stream: out.append((op_name, delta))
    skiplist_stream = streams.get("skiplist")

    expected: List[Any] = []
    sizes: List[int] = []  # the oracle's key count after each batch
    for batch in session.batches:
        expected.append(oracle.apply_batch(batch.op, batch.payload))
        sizes.append(len(oracle))
    answers = [repr(want) for want in expected]
    # Each implementation's steps, by the index of their last batch:
    # batch by batch, every implementation replays a step once all of
    # it has arrived.
    ends = {adapter.name: {step[-1][0]: step for step in session_steps(
        session, adapter.groups if read_groups else ())}
        for adapter in adapters}
    for last in range(len(session.batches)):
        for adapter in adapters:
            step = ends[adapter.name].get(last)
            if step is None:
                continue
            if len(step) > 1:
                _replay_group(report, session, adapter, step,
                              [expected[i] for i, _ in step], sizes[last],
                              twin)
            else:
                _replay_batch(report, session, adapter, last, step[0][1],
                              expected[last], sizes[last], twin)

    # Detach the observers before the final-state scans, which run extra
    # pipeline ops that the reruns do not replay.
    for adapter in observed:
        adapter.machine.batch_observer = None
    if skiplist_stream is not None:
        report.observed_ops = len(skiplist_stream)

    _check_final_states(report, session, oracle, adapters)
    report.seal(answers + [repr(sorted(oracle.as_dict().items()))],
                [f"{name}:{op}:{delta!r}" for name in sorted(streams)
                 for op, delta in streams[name]])

    if check_determinism and skiplist_stream is not None:
        _check_determinism(report, session, num_modules, skiplist_stream,
                           fault=fault, read_groups=read_groups)

    if check_backends:
        for name, stream in streams.items():
            _check_backend_equivalence(report, session, num_modules, stream,
                                       fault=fault, impl=name,
                                       read_groups=read_groups)
    return report


def session_steps(session: Session,
                  groups: Sequence[FrozenSet[str]] = (),
                  ) -> List[List[Tuple[int, Any]]]:
    """The session's ``(index, batch)`` pairs as replay steps: one batch
    a step, or every maximal run of consecutive batches of distinct ops
    inside one of ``groups`` (an implementation's ``TICK_GROUPS``), a
    write only first, as one step -- what a grouped tick of ``repro
    serve`` hands that implementation as one ``apply_group`` call."""
    steps: List[List[Tuple[int, Any]]] = []
    for i, batch in enumerate(session.batches):
        run = steps[-1] if steps else []
        ops = {b.op for _, b in run} | {batch.op}
        if (run and batch.op not in MUTATING_OPS and len(ops) > len(run)
                and any(ops <= group for group in groups)):
            run.append((i, batch))
        else:
            steps.append([(i, batch)])
    return steps


def _replay_batch(report: SessionReport, session: Session,
                  adapter: ImplAdapter, i: int, batch: Any, expected: Any,
                  n_keys: int, twin: Optional[ImplAdapter]) -> None:
    """One batch through one implementation: result against the oracle,
    rounds against the envelope, the skip list against its twin."""
    num_modules = report.num_modules
    if adapter.stale:
        return
    if not adapter.supports(batch.op):
        if batch.op in MUTATING_OPS:
            adapter.retire(i)
            report.retired[adapter.name] = i
        return
    try:
        result, delta = adapter.measured_apply(batch.op, batch.payload)
    except Exception as exc:  # noqa: BLE001 - report, don't die
        report.violations.append(Divergence(
            seed=session.seed, batch_index=i, op=batch.op,
            impl=adapter.name, kind="crash",
            detail=f"{type(exc).__name__}: {exc}"))
        adapter.retire(i)
        report.retired[adapter.name] = i
        return
    if batch.op in READ_OPS and result != expected:
        report.violations.append(Divergence(
            seed=session.seed, batch_index=i, op=batch.op,
            impl=adapter.name, kind="result",
            detail=_diff_results(batch.op, batch.payload,
                                 expected, result)))
    envelope_fn = ENVELOPE_FNS.get(adapter.name)
    if envelope_fn is not None and delta is not None:
        budget = _budget(envelope_fn, batch, expected, num_modules, n_keys)
        if delta.rounds > budget:
            report.violations.append(Divergence(
                seed=session.seed, batch_index=i, op=batch.op,
                impl=adapter.name, kind="rounds_envelope",
                detail=(f"{delta.rounds} rounds > envelope "
                        f"{budget} (batch of "
                        f"{len(batch.payload)}, P={num_modules})")))
        if adapter.name == "skiplist" and twin is not None:
            _check_split(report, session, i, batch, expected,
                         delta, twin)


def _budget(envelope_fn, batch: Any, expected: Any, num_modules: int,
            n_keys: int) -> int:
    result_size = (sum(len(rows) for rows in expected)
                   if batch.op == "range" else 0)
    return envelope_fn(batch.op, len(batch.payload), num_modules, n_keys,
                       result_size)


def _replay_group(report: SessionReport, session: Session,
                  adapter: ImplAdapter, step: List[Tuple[int, Any]],
                  expected: List[Any], n_keys: int,
                  twin: Optional[ImplAdapter]) -> None:
    """One tick group through an implementation that declares it: every
    sub-batch against the oracle, the group's rounds against the sum of
    its batches' envelopes and -- the skip list, against its twin --
    against the same batches run one after another (a shared traversal
    must not cost more rounds than two)."""
    if adapter.stale:
        return
    first = step[0][0]
    ops = "+".join(batch.op for _, batch in step)
    batches = [batch for _, batch in step]
    try:
        results, delta = adapter.measured_step(batches)
    except Exception as exc:  # noqa: BLE001 - report, don't die
        report.violations.append(Divergence(
            seed=session.seed, batch_index=first, op=ops,
            impl=adapter.name, kind="crash",
            detail=f"{type(exc).__name__}: {exc}"))
        adapter.retire(first)
        report.retired[adapter.name] = first
        return
    for (i, batch), want, got in zip(step, expected, results):
        if got != want:
            report.violations.append(Divergence(
                seed=session.seed, batch_index=i, op=batch.op,
                impl=adapter.name, kind="result",
                detail="[tick group] " + _diff_results(
                    batch.op, batch.payload, want, got)))
    envelope_fn = ENVELOPE_FNS.get(adapter.name)
    if envelope_fn is None or delta is None:
        return
    budget = sum(_budget(envelope_fn, batch, want, report.num_modules, n_keys)
                 for batch, want in zip(batches, expected))
    if delta.rounds > budget:
        report.violations.append(Divergence(
            seed=session.seed, batch_index=first, op=ops,
            impl=adapter.name, kind="rounds_envelope",
            detail=(f"tick group took {delta.rounds} rounds > {budget}, "
                    f"the sum of its batches' envelopes")))
    if adapter.name == "skiplist" and twin is not None:
        apart = [twin.measured_apply(batch.op, batch.payload)
                 for batch in batches]
        if [r for r, _ in apart] != expected:
            report.violations.append(Divergence(
                seed=session.seed, batch_index=first, op=ops,
                impl="skiplist", kind="split_result",
                detail="twin's one-after-another replay of a tick group "
                       "disagrees with the oracle"))
        # The twin's machine has drawn different random modules by now
        # (it splits every read batch), hence Successor's round slack.
        rounds = sum(d.rounds for _, d in apart)
        if delta.rounds > rounds + 8:
            report.violations.append(Divergence(
                seed=session.seed, batch_index=first, op=ops,
                impl="skiplist", kind="split_monotonicity",
                detail=(f"tick group took {delta.rounds} rounds > {rounds} "
                        f"(+8 slack) for its batches one after another")))


def _diff_results(op: str, payload: Sequence, expected: Any,
                  actual: Any) -> str:
    """A compact first-point-of-divergence description."""
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return (f"result length {len(actual)} != expected "
                    f"{len(expected)}")
        for j, (e, a) in enumerate(zip(expected, actual)):
            if e != a:
                arg = payload[j] if j < len(payload) else "?"
                return (f"element {j} (arg {arg!r}): got {a!r}, "
                        f"expected {e!r}")
    return f"got {actual!r}, expected {expected!r}"


def _check_split(report: SessionReport, session: Session, i: int, batch,
                 expected: Any, whole_delta: MetricsDelta,
                 twin: ImplAdapter) -> None:
    """Metamorphic invariant: replaying a read batch as two half batches
    must return the same answers and cannot be cheaper in rounds or IO
    (splitting only adds bulk-synchronous overhead)."""
    payload = batch.payload
    if batch.op in MUTATING_OPS:
        twin.apply(batch.op, payload)  # keep the twin's state in sync
        return
    if len(payload) < 2:
        twin.apply(batch.op, payload)  # charge it the same reads anyway
        return
    mid = len(payload) // 2
    r1, d1 = twin.measured_apply(batch.op, payload[:mid])
    r2, d2 = twin.measured_apply(batch.op, payload[mid:])
    if r1 + r2 != expected:
        report.violations.append(Divergence(
            seed=session.seed, batch_index=i, op=batch.op, impl="skiplist",
            kind="split_result",
            detail=_diff_results(batch.op, payload, expected, r1 + r2)))
    if batch.op == "range":
        # Concurrent ranges contend for modules, so a whole batch can
        # legitimately cost *more* rounds/IO than its two halves run
        # back to back; only the result-equivalence half of the
        # invariant applies to ranges.
        return
    if d1 is not None and d2 is not None:
        # Calibrated slack: Get is strictly monotone (0 excess across
        # the 250-config sweep); Successor's pivot recursion wobbles by
        # a few rounds / ~20 IO on small batches, so its bound carries
        # constant+multiplicative headroom.  A per-element regression
        # multiplies costs by O(batch) and still trips both bounds.
        if batch.op == "get":
            round_slack, io_mult, io_slack = 0, 1.0, 0.0
        else:
            round_slack, io_mult, io_slack = 8, 1.5, 16.0
        split_rounds = d1.rounds + d2.rounds
        split_io = d1.io_time + d2.io_time
        if whole_delta.rounds > split_rounds + round_slack:
            report.violations.append(Divergence(
                seed=session.seed, batch_index=i, op=batch.op,
                impl="skiplist", kind="split_monotonicity",
                detail=(f"whole batch took {whole_delta.rounds} rounds > "
                        f"{split_rounds} (+{round_slack} slack) for its "
                        f"two halves")))
        if whole_delta.io_time > io_mult * split_io + io_slack:
            report.violations.append(Divergence(
                seed=session.seed, batch_index=i, op=batch.op,
                impl="skiplist", kind="split_monotonicity",
                detail=(f"whole batch took {whole_delta.io_time:.0f} IO > "
                        f"{io_mult:g}x{split_io:.0f}+{io_slack:g} for "
                        f"its two halves")))


def _session_key_bounds(session: Session) -> Optional[Tuple[int, int]]:
    """(lo, hi) covering every key the session can have touched."""
    keys: List[Any] = list(session.initial_keys)
    for batch in session.batches:
        if batch.op in ("get", "successor", "delete"):
            keys.extend(batch.payload)
        elif batch.op == "upsert":
            keys.extend(k for k, _ in batch.payload)
        elif batch.op == "range":
            for lo, hi in batch.payload:
                keys.extend((lo, hi))
    if not keys:
        return None
    return min(keys), max(keys)


def _check_final_states(report: SessionReport, session: Session,
                        oracle: SequentialOracle,
                        adapters: Sequence[ImplAdapter]) -> None:
    bounds = _session_key_bounds(session)
    if bounds is None:
        return
    lo, hi = bounds
    want = oracle.as_dict()
    for adapter in adapters:
        if adapter.stale:
            continue
        try:
            adapter.check_integrity()
        except AssertionError as exc:
            report.violations.append(Divergence(
                seed=session.seed, batch_index=-1, op="final",
                impl=adapter.name, kind="integrity",
                detail=f"invariant violated: {exc}"))
        got = adapter.final_state(lo, hi)
        if got is None:
            continue
        if got != want:
            missing = sorted(set(want) - set(got))[:4]
            extra = sorted(set(got) - set(want))[:4]
            wrong = sorted(k for k in set(want) & set(got)
                           if want[k] != got[k])[:4]
            report.violations.append(Divergence(
                seed=session.seed, batch_index=-1, op="final",
                impl=adapter.name, kind="final_state",
                detail=(f"{len(want)} keys expected, {len(got)} found; "
                        f"missing={missing} extra={extra} "
                        f"wrong_value={wrong}")))


def _check_determinism(report: SessionReport, session: Session,
                       num_modules: int,
                       first_stream: List[Tuple[str, MetricsDelta]], *,
                       fault: Optional[Tuple[str, str]] = None,
                       read_groups: bool = False) -> None:
    """Replay the skip list alone on a fresh machine; the per-op metric
    stream must be bit-identical to the first run's.  An injected fault
    is replayed too, so this check isolates nondeterminism rather than
    re-detecting the fault's state divergence."""
    items = initial_items_for(session)
    rerun = build_implementations(["skiplist"], seed=session.seed,
                                  items=items,
                                  num_modules=num_modules)[0]
    if fault is not None and fault[0] == "skiplist":
        from repro.verify.faults import inject_fault
        inject_fault(rerun, fault[1])
    stream: List[Tuple[str, MetricsDelta]] = []
    assert rerun.machine is not None
    rerun.machine.batch_observer = \
        lambda op_name, delta: stream.append((op_name, delta))
    for step in session_steps(session,
                              rerun.groups if read_groups else ()):
        rerun.apply_step([batch for _, batch in step])
    rerun.machine.batch_observer = None
    if len(stream) != len(first_stream):
        report.violations.append(Divergence(
            seed=session.seed, batch_index=-1, op="rerun", impl="skiplist",
            kind="determinism",
            detail=(f"rerun produced {len(stream)} pipeline ops, first "
                    f"run {len(first_stream)}")))
        return
    for j, ((op1, d1), (op2, d2)) in enumerate(zip(first_stream, stream)):
        if op1 != op2 or d1 != d2:
            report.violations.append(Divergence(
                seed=session.seed, batch_index=-1, op="rerun",
                impl="skiplist", kind="determinism",
                detail=(f"pipeline op {j}: first run ({op1}, {d1}) != "
                        f"rerun ({op2}, {d2})")))
            return


def _check_backend_equivalence(report: SessionReport, session: Session,
                               num_modules: int,
                               first_stream: List[Tuple[str, MetricsDelta]],
                               *, fault: Optional[Tuple[str, str]] = None,
                               impl: str = "skiplist",
                               read_groups: bool = False) -> None:
    """Replay ``impl`` alone on the per-task reference oracle.

    Two checks, both against the primary run: every read batch's result
    must match the sequential oracle (replayed fresh here, so the check
    stands alone), and the per-op metric stream -- rounds, h-relations,
    IO/PIM time, messages -- must be *bit-identical* to the stream the
    engine produced.  A fault injected into ``impl`` is replayed too (and
    the oracle comparison skipped, since the fault's result divergence
    is already reported by the primary run): this check isolates engine
    divergence, nothing else.
    """
    other = "reference"  # label in divergence details
    items = initial_items_for(session)
    rerun = reference_adapter(impl, session.seed, items, num_modules)
    faulted = fault is not None and fault[0] == impl
    if faulted:
        from repro.verify.faults import inject_fault
        inject_fault(rerun, fault[1])
    oracle = SequentialOracle(items)
    stream: List[Tuple[str, MetricsDelta]] = []
    assert rerun.machine is not None
    rerun.machine.batch_observer = \
        lambda op_name, delta: stream.append((op_name, delta))
    for step in session_steps(session,
                              rerun.groups if read_groups else ()):
        batches = [batch for _, batch in step]
        wanted = [oracle.apply_batch(batch.op, batch.payload)
                  for batch in batches]
        try:
            results = rerun.apply_step(batches)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            report.violations.append(Divergence(
                seed=session.seed, batch_index=step[0][0],
                op=batches[0].op, impl=impl, kind="backend",
                detail=(f"[{other}] {type(exc).__name__}: {exc}")))
            rerun.machine.batch_observer = None
            return
        for (i, batch), expected, result in zip(step, wanted, results):
            if batch.op in READ_OPS and not faulted and result != expected:
                report.violations.append(Divergence(
                    seed=session.seed, batch_index=i, op=batch.op,
                    impl=impl, kind="backend",
                    detail=(f"[{other}] "
                            + _diff_results(batch.op, batch.payload,
                                            expected, result))))
    rerun.machine.batch_observer = None
    if len(stream) != len(first_stream):
        report.violations.append(Divergence(
            seed=session.seed, batch_index=-1, op="rerun", impl=impl,
            kind="backend",
            detail=(f"{other} engine produced {len(stream)} pipeline "
                    f"ops, primary {len(first_stream)}")))
        return
    for j, ((op1, d1), (op2, d2)) in enumerate(zip(first_stream, stream)):
        if op1 != op2 or d1 != d2:
            report.violations.append(Divergence(
                seed=session.seed, batch_index=-1, op="rerun",
                impl=impl, kind="backend",
                detail=(f"pipeline op {j}: primary ({op1}, {d1})"
                        f" != {other} ({op2}, {d2})")))
            return


# ----------------------------------------------------------------------
# container structures (FIFO queue, priority queue)
# ----------------------------------------------------------------------

def verify_containers(seed: int, num_modules: int = 8, *,
                      num_batches: int = 6, batch_size: int = 16,
                      machine: Optional[Any] = None,
                      ) -> List[Divergence]:
    """Differentially test the FIFO queue against ``collections.deque``
    and the priority queue against a sorted-reference, with batch shapes
    (duplicate priorities, drain-to-empty, refill) derived from ``seed``.

    ``machine`` optionally supplies a pre-built machine -- the chaos
    harness passes one with a fault plan installed, so the containers'
    exact-result checks run over an unreliable network too."""
    import random as _random

    from repro.sim.machine import PIMMachine
    from repro.structures.fifo import PIMQueue
    from repro.structures.priority_queue import PIMPriorityQueue

    rng = _random.Random(seed ^ 0x5EED)
    if machine is None:
        machine = PIMMachine(num_modules=num_modules, seed=seed & 0x7FFFFFFF)
    queue = PIMQueue(machine)
    pq = PIMPriorityQueue(machine)
    out: List[Divergence] = []

    from collections import deque
    ref_q: deque = deque()
    ref_pq: List[Tuple[Any, int, Any]] = []  # (priority, seq, value)
    seq = 0

    def report(impl: str, batch_index: int, op: str, detail: str) -> None:
        out.append(Divergence(seed=seed, batch_index=batch_index, op=op,
                              impl=impl, kind="container", detail=detail))

    for i in range(num_batches):
        # FIFO: enqueue a batch, dequeue a (sometimes overlong) batch.
        values = [rng.randrange(1000) for _ in
                  range(1 + rng.randrange(batch_size))]
        queue.enqueue_batch(values)
        ref_q.extend(values)
        want_n = rng.randrange(batch_size + 4)
        got = queue.dequeue_batch(want_n)
        want = [ref_q.popleft() for _ in range(min(want_n, len(ref_q)))]
        if got != want:
            report("fifo", i, "dequeue", f"got {got!r}, expected {want!r}")
        if len(queue) != len(ref_q):
            report("fifo", i, "depth",
                   f"depth {len(queue)} != expected {len(ref_q)}")

        # Priority queue: duplicate-heavy priorities stress FIFO ties.
        items = [(rng.randrange(8), rng.randrange(1000))
                 for _ in range(1 + rng.randrange(batch_size))]
        pq.insert_batch(items)
        for prio, value in items:
            ref_pq.append((prio, seq, value))
            seq += 1
        ref_pq.sort()
        take = rng.randrange(batch_size + 4)
        got_pq = pq.extract_min_batch(take)
        k = min(take, len(ref_pq))
        want_pq = [(p, v) for p, _, v in ref_pq[:k]]
        del ref_pq[:k]
        if got_pq != want_pq:
            report("priority_queue", i, "extract_min",
                   f"got {got_pq!r}, expected {want_pq!r}")
        if len(pq) != len(ref_pq):
            report("priority_queue", i, "depth",
                   f"depth {len(pq)} != expected {len(ref_pq)}")
    return out
