"""Failing-case shrinker plus the session's JSON form.

``shrink_session`` takes a diverging session and a test function and
minimizes it with delta debugging: first ddmin over whole batches (drop
chunks of batches while the failure persists), then payload halving
inside the surviving batches.  Evaluation count is bounded, so a
pathological test function cannot spin forever.

``session_to_dict`` / ``session_from_dict`` are the session part of a
differential or chaos certificate's config
(:mod:`repro.verify.certificate`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

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
