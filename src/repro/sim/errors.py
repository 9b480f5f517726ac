"""Exception types raised by the PIM machine simulator."""


class SimulationError(RuntimeError):
    """Base class for all simulator errors."""


class SharedMemoryExceeded(SimulationError):
    """Raised when CPU-side shared memory usage would exceed ``M`` words.

    The PIM model assumes the CPU-side shared memory is small (it models
    the last-level cache): ``M = O(n/P)`` and ``M = Omega(P polylog P)``.
    Algorithms declare their shared-memory footprint through
    :meth:`repro.sim.cpu.CPUSide.alloc`, and machines constructed with
    ``enforce_shared_memory=True`` raise this error on overflow.
    """


class LocalMemoryExceeded(SimulationError):
    """Raised when a PIM module's local memory exceeds its budget.

    Each PIM module has ``Theta(n/P)`` words of local memory.  Enforcement
    is optional (see :class:`repro.sim.config.MachineConfig`) because the
    constant in the Theta is an engineering choice, but the footprint is
    always tracked so tests can assert Theorem 3.1's O(n/P)-per-module
    bound.
    """


class UnknownHandlerError(SimulationError):
    """Raised when a task names a function id with no registered handler."""


class MalformedMessageError(SimulationError):
    """Raised at *issue* time for a structurally invalid CPU-side message.

    A ``send_all`` message must be ``(dest, fn, args, tag)`` or ``(dest,
    fn, args, tag, size)``; there and in ``send`` / ``broadcast``,
    ``size`` must be a positive ``int`` (the accounted message size in
    constant-size units).  Validating at issue keeps the failure at the
    offending call instead of surfacing as an opaque unpacking error or
    a round whose message count misses tasks it ran.
    """


class LivelockError(SimulationError):
    """Raised when ``drain(max_rounds)`` exhausts its round budget.

    The message names the originating op (the drain's ``label``) and the
    pending handler function ids, so a forwarding cycle can be traced to
    the op/handler that spins, not just to anonymous queue depths.
    """


class ModuleCrashed(SimulationError):
    """Raised when a message reaches a crashed (fail-stop) PIM module.

    Only *unprotected* deliveries raise: messages sent outside the
    reliable-delivery protocol (:mod:`repro.ops.pipeline`) have no retry
    path, so delivering to a dead module is a hard fault.  Protocol
    envelopes to a dead module are silently lost instead -- the sender's
    ack timeout notices and retries (or escalates to
    :class:`DeliveryTimeout`).  ``mid`` is the crashed module's id.
    """

    def __init__(self, message: str, mid: int = -1) -> None:
        super().__init__(message)
        self.mid = mid


class DeliveryTimeout(SimulationError):
    """Raised when the reliable-delivery protocol exhausts its retries.

    The message names the originating op (drain label), the attempt
    count, and the undelivered handler function ids with destination
    modules -- partitioned into messages **stuck on dead module(s)**
    (the destination is crashed right now; only failover can help) and
    messages **still retrying (transient faults)** (the destination is
    alive; a larger ``max_delivery_attempts`` -- see
    :class:`repro.sim.config.MachineConfig` -- might have landed them).
    The ``stuck`` / ``retrying`` attributes carry the two counts.
    """

    def __init__(self, message: str, op: str = "", attempts: int = 0,
                 undelivered: int = 0, stuck: int = 0,
                 retrying: int = 0) -> None:
        super().__init__(message)
        self.op = op
        self.attempts = attempts
        self.undelivered = undelivered
        self.stuck = stuck
        self.retrying = retrying


class InvalidBatchError(SimulationError):
    """Raised when a batch violates the model's batch constraints.

    The paper requires (i) all operations in a batch have the same type and
    (ii) a minimum batch size, typically ``P polylog(P)``.  Data structures
    raise this error when asked to run a batch that violates a constraint
    they rely on for their bounds (callers may opt out via
    ``enforce_batch_size=False`` to run ablations).
    """
