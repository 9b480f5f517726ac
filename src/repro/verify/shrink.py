"""Failing-case shrinker plus the replayable-repro JSON format.

``shrink_session`` takes a diverging session and a test function and
minimizes it with delta debugging: first ddmin over whole batches (drop
chunks of batches while the failure persists), then payload halving
inside the surviving batches.  Evaluation count is bounded, so a
pathological test function cannot spin forever.

``write_repro`` / ``load_repro`` serialize a session (plus the
divergence that condemned it) to ``tests/golden/repros/`` as JSON.
Every file in that directory is auto-collected and replayed by
``tests/test_verify_repros.py`` -- a shrunk fuzz failure becomes a
permanent regression test by existing.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional

from repro.workloads.sessions import Session, SessionBatch

#: Ops whose payload elements are 2-item lists in JSON and must come
#: back as tuples for the batch surfaces / comparisons.
_TUPLE_PAYLOAD_OPS = frozenset({"upsert", "range"})

REPRO_FORMAT = 1


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def session_to_dict(session: Session) -> Dict[str, Any]:
    return {
        "format": REPRO_FORMAT,
        "seed": session.seed,
        "initial_keys": list(session.initial_keys),
        "batches": [{"op": b.op, "payload": [list(e) if isinstance(e, tuple)
                                             else e for e in b.payload]}
                    for b in session.batches],
    }


def session_from_dict(data: Dict[str, Any]) -> Session:
    if data.get("format") != REPRO_FORMAT:
        raise ValueError(f"unknown repro format {data.get('format')!r}")
    batches = []
    for b in data["batches"]:
        payload = b["payload"]
        if b["op"] in _TUPLE_PAYLOAD_OPS:
            payload = [tuple(e) for e in payload]
        batches.append(SessionBatch(op=b["op"], payload=payload))
    return Session(batches=batches,
                   initial_keys=list(data["initial_keys"]),
                   seed=int(data["seed"]))


def write_repro(session: Session, path: str, *,
                divergences: Optional[List[Any]] = None,
                impls: Optional[List[str]] = None,
                num_modules: Optional[int] = None,
                read_groups: bool = False,
                fault_schedule: Optional[str] = None,
                fault_seed: Optional[int] = None,
                note: str = "") -> str:
    """Write a replayable repro file; returns the path written.

    ``fault_schedule`` / ``fault_seed`` mark a *chaos* repro: replay
    then goes through :func:`repro.verify.chaos.chaos_session` under
    that machine-level fault schedule instead of the fault-free
    differential driver.
    """
    data = session_to_dict(session)
    if impls is not None:
        data["impls"] = list(impls)
    if num_modules is not None:
        data["num_modules"] = num_modules
    if read_groups:  # replay steps were ``differ.session_steps``'s groups
        data["read_groups"] = True
    if fault_schedule is not None:
        data["fault_schedule"] = fault_schedule
        data["fault_seed"] = int(fault_seed or 0)
    if note:
        data["note"] = note
    if divergences:
        data["divergences"] = [str(d) for d in divergences]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_repro(path: str) -> Dict[str, Any]:
    """Load a repro file; ``session_from_dict(result)`` rebuilds the
    session, and the dict keeps any impls/num_modules/note metadata."""
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def shrink_session(session: Session,
                   is_failing: Callable[[Session], bool], *,
                   max_evals: int = 400) -> Session:
    """Minimize a failing session while ``is_failing`` stays true.

    Classic ddmin over the batch list, then payload bisection within
    each surviving batch.  ``is_failing(session)`` must be true on entry
    (asserted); the result is the smallest failing session found within
    the evaluation budget.
    """
    assert is_failing(session), "shrink_session needs a failing session"
    budget = [max_evals]

    def check(candidate: Session) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        return is_failing(candidate)

    batches = _ddmin_batches(session, check)
    batches = _shrink_payloads(session, batches, check)
    return Session(batches=batches, initial_keys=session.initial_keys,
                   seed=session.seed)


def _with_batches(session: Session,
                  batches: List[SessionBatch]) -> Session:
    return Session(batches=batches, initial_keys=session.initial_keys,
                   seed=session.seed)


def _ddmin_batches(session: Session,
                   check: Callable[[Session], bool],
                   ) -> List[SessionBatch]:
    """ddmin over the batch list: try dropping chunks, refining the
    chunk size until single batches can't be removed."""
    batches = list(session.batches)
    chunk = max(1, len(batches) // 2)
    while chunk >= 1 and len(batches) > 1:
        shrunk = False
        i = 0
        while i < len(batches):
            candidate = batches[:i] + batches[i + chunk:]
            if candidate and check(_with_batches(session, candidate)):
                batches = candidate
                shrunk = True
                # retry the same index: the next chunk shifted into place
            else:
                i += chunk
        if not shrunk:
            chunk //= 2
    return batches


def _shrink_payloads(session: Session, batches: List[SessionBatch],
                     check: Callable[[Session], bool],
                     ) -> List[SessionBatch]:
    """Halve each surviving batch's payload while the failure persists:
    try the first half, the second half, then single-element drops for
    small payloads."""
    batches = list(batches)
    for i, batch in enumerate(batches):
        payload = list(batch.payload)
        changed = True
        while changed and len(payload) > 1:
            changed = False
            mid = len(payload) // 2
            for half in (payload[:mid], payload[mid:]):
                if not half:
                    continue
                candidate = batches[:i] + \
                    [SessionBatch(op=batch.op, payload=half)] + \
                    batches[i + 1:]
                if check(_with_batches(session, candidate)):
                    payload = half
                    batches[i] = SessionBatch(op=batch.op, payload=half)
                    changed = True
                    break
        if len(payload) <= 8:  # single-element polish on small payloads
            j = 0
            while j < len(payload) and len(payload) > 1:
                candidate_payload = payload[:j] + payload[j + 1:]
                candidate = batches[:i] + \
                    [SessionBatch(op=batch.op,
                                  payload=candidate_payload)] + \
                    batches[i + 1:]
                if check(_with_batches(session, candidate)):
                    payload = candidate_payload
                    batches[i] = SessionBatch(op=batch.op, payload=payload)
                else:
                    j += 1
    return batches
