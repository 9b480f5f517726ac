"""One certificate shape: the runner behind every ``repro verify`` harness.

The differential driver (:mod:`repro.verify.differ`), the chaos harness
(:mod:`repro.verify.chaos`), the serving soak (:mod:`repro.verify.soak`)
and the durability sweeps (:mod:`repro.verify.durable`) each return a
report that is a :class:`Certificate`:

- ``violations`` -- what failed; empty means certified.
- ``config`` -- the repro: exactly what a repro file holds, and
  everything :func:`certify` needs to run the certificate again.  Its
  ``kind`` names the harness; ``differential`` and ``chaos`` configs
  carry the session they ran, ``soak`` and ``durable`` configs the
  parameters that regenerate theirs.
- ``result_digest`` over what a client observes and ``model_digest``
  over what the model charged, declared by :meth:`Certificate.seal`
  (DESIGN.md §20 says which observable goes where).

:func:`certify` is the one runner; :func:`write_repro` /
:func:`load_repro` are the one repro format.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.verify.shrink import session_from_dict

__all__ = ["Certificate", "certify", "load_repro", "write_repro"]


class Certificate:
    """Mixin for a harness report.

    The report declares ``violations`` and ``config`` as its own fields;
    the mixin adds the verdict and the two digests.
    """

    violations: List[Any]
    config: Dict[str, Any]
    result_digest: str = ""
    model_digest: str = ""

    @property
    def ok(self) -> bool:
        """Certified: no violation."""
        return not self.violations

    def seal(self, results: Iterable[str], model: Iterable[str]) -> None:
        """Set both digests: ``results`` are the client-observable
        outcomes, ``model`` what the model charged for them."""
        self.result_digest, self.model_digest = (
            hashlib.sha256("\n".join(parts).encode()).hexdigest()
            for parts in (results, model))


def certify(config: Dict[str, Any], *,
            fault: Optional[Tuple[str, str]] = None) -> Certificate:
    """Run the certificate ``config`` describes; returns its report.

    With ``check: "determinism"`` the certificate runs twice and both
    digests must match; a mismatch is a violation of the first run's
    report, whose ``config`` keeps the check.  ``fault`` injects a
    registered adapter fault into a differential run -- the verifier's
    mutation test.  It is never part of a config, so a repro written
    under one replays against the real implementations.
    """
    report = _run(config, fault)
    if config.get("check") == "determinism":
        rerun = _run(config, fault)
        for name in ("result_digest", "model_digest"):
            first, second = getattr(report, name), getattr(rerun, name)
            if first != second:
                report.violations.append(
                    f"[determinism] rerun {name} {second[:16]}... != "
                    f"first {first[:16]}...")
        report.config["check"] = "determinism"
    return report


def _run(config: Dict[str, Any],
         fault: Optional[Tuple[str, str]]) -> Certificate:
    # Harness functions are looked up on their modules at call time, so
    # a test that patches one is the one certify runs.
    from repro.verify import chaos, differ, durable, soak

    kind = config["kind"]
    modules = int(config.get("num_modules", 8))
    if kind == "differential":
        return differ.verify_session(
            session_from_dict(config), config.get("impls"), modules,
            read_groups=bool(config.get("read_groups")), fault=fault,
            **{check: config.get(check, True) for check in (
                "check_metamorphic", "check_determinism", "check_backends")})
    if kind == "chaos":
        session = session_from_dict(config)
        return chaos.chaos_session(
            session.seed, config["fault_schedule"],
            int(config.get("fault_seed", 0)), num_modules=modules,
            session=session, structure=config.get("structure", "skiplist"),
            checkpoint_every=int(config.get("checkpoint_every", 3)))
    if kind == "soak":
        return soak.soak_session(
            config["schedule"], int(config["fault_seed"]),
            clients=int(config["clients"]),
            ops_per_client=int(config["ops_per_client"]),
            seed=int(config["seed"]), num_modules=modules,
            structure=config.get("structure", "skiplist"))
    if kind == "durable":
        kwargs = {name: int(config[name]) for name in (
            "fault_seed", "num_batches", "batch_size", "checkpoint_every")}
        if config["mode"] == "fault":
            return durable.fault_sweep(int(config["session_seed"]),
                                       faults=config.get("faults"),
                                       num_modules=modules, **kwargs)
        return durable.kill_sweep(int(config["session_seed"]),
                                  num_modules=modules, **kwargs)
    raise ValueError(f"unknown certificate kind {kind!r}")


def write_repro(path: str, config: Dict[str, Any]) -> str:
    """Write ``config`` as a repro file (its parent directory is
    created); returns the path written."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_repro(path: str) -> Dict[str, Any]:
    """Load a repro file as the config :func:`certify` runs.

    Files written before configs named their ``kind`` are chaos repros
    when they carry a ``fault_schedule`` and differential ones otherwise.
    """
    with open(path) as fh:
        config = json.load(fh)
    config.setdefault("kind", "chaos" if "fault_schedule" in config
                      else "differential")
    return config
