"""Job-submission protocol: specs, validation, and canonical content keys.

A :class:`JobSpec` is the service's unit of work: one (workload, design,
config-overrides, seed) simulation request.  Its :attr:`~JobSpec.key` is a
SHA-256 over the *canonical* spec fields, which makes the result store
content-addressed: two submissions that mean the same simulation hash to
the same key no matter who sent them or in what field order, so duplicates
are free cache hits.  Results are deterministic functions of the spec, so a
key uniquely identifies a result — that identity is also what lets the
chaos harness assert byte-equivalence between a faulted and a clean run.

``KEY_VERSION`` is folded into the hash: any change to the spec fields or
to simulation semantics that should invalidate cached results must bump it,
which retires every old key at once instead of silently serving stale data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Tuple

from ..common.errors import ProtocolError, WorkloadError
from ..common.integrity import canonical_json
from ..core.metrics import SimulationResult

# v2: workload-engine selection joined the spec (engine + engine_params);
# bumping retires every v1 key so cached results can never alias across
# the field change.
KEY_VERSION = 2

#: Designs a spec may name (mirrors ``repro.core.experiment.POLICY_LABELS``;
#: imported lazily there to keep this module import-light for workers).
_DESIGNS = ("baseline", "clasp", "rac", "pwac", "f-pwac")


@dataclass(frozen=True)
class JobSpec:
    """One simulation request, canonically identified by :attr:`key`."""

    workload: str
    design: str = "baseline"
    capacity_uops: int = 2048
    max_entries_per_line: int = 2
    num_instructions: int = 120_000
    warmup_instructions: int = 0
    seed: int = 7
    #: Workload engine and its parameters.  Parameters are normalized to a
    #: sorted tuple of (name, value) pairs so the spec stays hashable and
    #: two spellings of the same params produce the same content key.
    engine: str = "synthetic"
    engine_params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        from ..workloads.engine import create_engine
        from ..workloads.suite import WORKLOAD_NAMES
        if self.workload not in WORKLOAD_NAMES:
            raise ProtocolError(
                f"unknown workload {self.workload!r}; "
                f"choose from {', '.join(WORKLOAD_NAMES)}")
        if self.design not in _DESIGNS:
            raise ProtocolError(
                f"unknown design {self.design!r}; "
                f"choose from {', '.join(_DESIGNS)}")
        for name in ("capacity_uops", "max_entries_per_line",
                     "num_instructions"):
            if getattr(self, name) <= 0:
                raise ProtocolError(f"{name} must be positive")
        if self.warmup_instructions < 0:
            raise ProtocolError("warmup_instructions must be >= 0")
        params = self.engine_params
        if isinstance(params, Mapping):
            params = tuple(params.items())
        try:
            normalized = tuple(sorted((str(name), value)
                                      for name, value in params))
        except (TypeError, ValueError) as error:
            raise ProtocolError(
                f"engine_params must be a mapping or (name, value) "
                f"pairs: {error}") from error
        object.__setattr__(self, "engine_params", normalized)
        try:
            # Instantiating validates the engine name and its parameter
            # names/types/ranges without running anything.
            create_engine(self.engine, workload=self.workload,
                          params=dict(normalized))
        except WorkloadError as error:
            raise ProtocolError(str(error)) from error

    def canonical(self) -> Dict[str, Any]:
        """The exact fields the content key hashes, version included."""
        payload: Dict[str, Any] = {"key_version": KEY_VERSION}
        for spec_field in fields(self):
            payload[spec_field.name] = getattr(self, spec_field.name)
        return payload

    @property
    def key(self) -> str:
        """Content address: SHA-256 of the canonical spec JSON."""
        digest = hashlib.sha256(
            canonical_json(self.canonical()).encode("utf-8"))
        return digest.hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        payload = {spec_field.name: getattr(self, spec_field.name)
                   for spec_field in fields(self)}
        payload["engine_params"] = dict(self.engine_params)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Parse an untrusted submission; :class:`ProtocolError` on junk.

        Unknown fields are rejected rather than ignored: a client that
        misspells ``seed`` must hear about it, not silently get the default
        (and a cache hit for a simulation it didn't ask for).
        """
        if not isinstance(data, Mapping):
            raise ProtocolError(
                f"job spec must be an object, got {type(data).__name__}")
        known = {spec_field.name: spec_field for spec_field in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ProtocolError(
                f"unknown job spec field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(known))}")
        if "workload" not in data:
            raise ProtocolError("job spec is missing required field "
                                "'workload'")
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            if name in ("workload", "design", "engine"):
                if not isinstance(value, str):
                    raise ProtocolError(f"field {name!r} must be a string")
            elif name == "engine_params":
                if not isinstance(value, Mapping):
                    raise ProtocolError(
                        "field 'engine_params' must be an object")
                for param, param_value in value.items():
                    if not isinstance(param, str):
                        raise ProtocolError(
                            "engine_params keys must be strings")
                    if isinstance(param_value, bool) or not isinstance(
                            param_value, (str, int, float)):
                        raise ProtocolError(
                            f"engine_params[{param!r}] must be a string "
                            "or number")
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"field {name!r} must be an integer")
            kwargs[name] = value
        return cls(**kwargs)


def execute_spec(spec: JobSpec, strict: bool = True) -> SimulationResult:
    """Run one spec to completion in the current process.

    Shared by pool workers and any inline caller, so service results are
    bit-identical to CLI runs of the same configuration: everything is
    rebuilt deterministically from the spec's primitives.  Service jobs are
    counters-only (no hub is ever attached here), so they take the fast
    serve loop (see :func:`repro.core.experiment.job_config`).
    """
    # Imported lazily: experiment.py sits above the runner this module's
    # pool reuses, so a module-level import would be circular.
    from ..core.experiment import job_config, workload_trace
    from ..core.simulator import Simulator

    config = job_config(spec.design, spec.capacity_uops,
                        spec.max_entries_per_line, spec.warmup_instructions)
    trace = workload_trace(spec.workload, spec.num_instructions,
                           seed=spec.seed, engine=spec.engine,
                           engine_params=dict(spec.engine_params))
    return Simulator(trace, config, spec.design, strict=strict).run()
