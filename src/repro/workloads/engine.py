"""Pluggable workload engines: one registry, many ways to make a trace.

Every experiment layer (sweeps, the serve loop, the fuzzer, the bench
harness) consumes a :class:`~repro.workloads.trace.Trace`; this module
abstracts *where that trace comes from* behind a small registry:

- ``synthetic`` — :class:`SyntheticMarkovEngine`, the original Markov-walk
  generator (:mod:`repro.workloads.generator`), now one engine among many.
  The default engine everywhere; with default params it is bit-identical
  to the pre-registry ``generate_workload()`` path.
- ``replay`` — :class:`TraceReplayEngine`, replays a packed ``.uoptrace``
  file (:mod:`repro.workloads.tracefile`), making captured or previously
  generated traces first-class reproducible workloads.
- ``phased-static`` / ``phased-dynamic`` / ``oscillating`` —
  :class:`PhasedEngine` variants that impose a seeded footprint *schedule*
  on a synthetic program image: the driver's dispatch is confined to a
  window of functions that stays fixed (STATIC), jumps randomly per
  segment (DYNAMIC), or alternates between a hot set and a cold sweep
  (OSCILLATING).
- ``adv-fragment`` / ``adv-smc`` / ``adv-pwconflict`` — adversarial
  generators (:mod:`repro.workloads.adversarial`) that deliberately
  maximize uop-cache fragmentation, SMC invalidation damage, and
  prediction-window conflict.

Engines are constructed by name with :func:`create_engine`; the
``describe()`` dict is canonical (sorted params) and feeds service content
keys, trace provenance, and bench report identity.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple, Type

from ..common.errors import WorkloadError
from ..common.hashing import derive_stream_seed
from .generator import IndirectBehavior, TraceWalker, Workload
from .trace import Trace


class _Required:
    """Sentinel for parameters without a default."""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "<required>"


REQUIRED = _Required()

#: Parameter spec: name -> (type, default-or-REQUIRED).
ParamSpecs = Dict[str, Tuple[type, Any]]


class WorkloadEngine(ABC):
    """A named, parameterized source of dynamic traces.

    Subclasses declare ``name`` (the registry key) and ``PARAM_SPECS``
    (typed parameters with defaults); construction validates parameters
    strictly — unknown names and wrong types raise
    :class:`~repro.common.errors.WorkloadError` so a typo in a job spec or
    CLI flag never silently falls back to a default.
    """

    name: ClassVar[str] = ""
    PARAM_SPECS: ClassVar[ParamSpecs] = {}

    def __init__(self, workload: str = "bm-x64",
                 params: Optional[Mapping[str, Any]] = None) -> None:
        self.workload = workload
        self.params: Dict[str, Any] = self._coerce_params(params or {})
        self._validate()

    @classmethod
    def _coerce_params(cls, raw: Mapping[str, Any]) -> Dict[str, Any]:
        unknown = sorted(set(raw) - set(cls.PARAM_SPECS))
        if unknown:
            raise WorkloadError(
                f"engine {cls.name!r} got unknown parameter(s) "
                f"{', '.join(unknown)}; accepts: "
                f"{', '.join(sorted(cls.PARAM_SPECS)) or '(none)'}")
        params: Dict[str, Any] = {}
        for key in sorted(cls.PARAM_SPECS):
            kind, default = cls.PARAM_SPECS[key]
            if key in raw:
                value = raw[key]
                if kind is float and isinstance(value, int) \
                        and not isinstance(value, bool):
                    value = float(value)
                if not isinstance(value, kind) or \
                        (kind is int and isinstance(value, bool)):
                    raise WorkloadError(
                        f"engine {cls.name!r} parameter {key!r} must be "
                        f"{kind.__name__}, got {value!r}")
                params[key] = value
            elif isinstance(default, _Required):
                raise WorkloadError(
                    f"engine {cls.name!r} requires parameter {key!r}")
            else:
                params[key] = default
        return params

    def _validate(self) -> None:
        """Hook for engine-specific parameter range checks."""

    @abstractmethod
    def build_trace(self, num_instructions: int, seed: int) -> Trace:
        """Produce a trace of exactly ``num_instructions`` records."""

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able identity: engine name, workload, params.

        Deterministic (params sorted) so it can feed content-addressed
        keys and provenance records directly.
        """
        return {
            "engine": self.name,
            "workload": self.workload,
            "params": {key: self.params[key]
                       for key in sorted(self.params)},
        }


# --------------------------------------------------------------- registry

_REGISTRY: Dict[str, Type[WorkloadEngine]] = {}


def register_engine(cls: Type[WorkloadEngine]) -> Type[WorkloadEngine]:
    """Class decorator: add an engine to the global registry."""
    if not cls.name:
        raise WorkloadError(f"{cls.__name__} has no engine name")
    if cls.name in _REGISTRY:
        raise WorkloadError(f"duplicate engine name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def engine_names() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_engine(name: str, workload: str = "bm-x64",
                  params: Optional[Mapping[str, Any]] = None
                  ) -> WorkloadEngine:
    """Instantiate a registered engine by name (strict on unknowns)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload engine {name!r}; registered engines: "
            f"{', '.join(engine_names())}") from None
    return cls(workload=workload, params=params)


# ------------------------------------------------------- synthetic engine

@register_engine
class SyntheticMarkovEngine(WorkloadEngine):
    """The original generator behind an engine face.

    ``gen_seed`` seeds program-image *generation* (the suite's memoised
    default is 1); the ``seed`` passed to :meth:`build_trace` seeds the
    dynamic walk.  With ``gen_seed=1`` this reproduces
    ``workload_trace()`` exactly; with ``gen_seed=<walk seed>`` it
    reproduces the bench harness's historical path.
    """

    name = "synthetic"
    PARAM_SPECS: ClassVar[ParamSpecs] = {"gen_seed": (int, 1)}

    def build_trace(self, num_instructions: int, seed: int) -> Trace:
        from .suite import get_workload
        workload = get_workload(self.workload,
                                seed=self.params["gen_seed"])
        return workload.trace(num_instructions, seed=seed)


# ---------------------------------------------------------- trace replay

@register_engine
class TraceReplayEngine(WorkloadEngine):
    """Replays a packed ``.uoptrace`` file bit-identically.

    The walk ``seed`` is ignored — a replayed trace *is* its records.
    Asking for more instructions than the file holds is an error (replay
    never invents instructions); asking for fewer replays a prefix.
    """

    name = "replay"
    PARAM_SPECS: ClassVar[ParamSpecs] = {"path": (str, REQUIRED)}

    def build_trace(self, num_instructions: int, seed: int) -> Trace:
        from .tracefile import unpack_trace
        if num_instructions < 1:
            raise WorkloadError("trace length must be >= 1")
        trace = unpack_trace(self.params["path"])
        packed = len(trace)
        if num_instructions > packed:
            raise WorkloadError(
                f"replay of {self.params['path']} asked for "
                f"{num_instructions} instruction(s) but the packed trace "
                f"holds only {packed}")
        if num_instructions < packed:
            return trace.prefix(num_instructions)
        return trace


# --------------------------------------------------------- phased engines

class _PhasedWalker(TraceWalker):
    """A walker whose driver dispatch is confined to a scheduled window.

    The schedule runs on its own RNG stream (derived from the walk seed
    and the engine name) so window placement never perturbs the walk
    RNG's branch/memory decisions.  Windows are materialized lazily in
    phase order, which is deterministic because ``self._index`` only
    grows.
    """

    def __init__(self, workload: Workload, seed: int, engine_name: str,
                 schedule: str, segment_length: int,
                 hot_fraction: float, cold_fraction: float) -> None:
        super().__init__(workload, seed)
        self._schedule = schedule
        self._segment_length = segment_length
        self._schedule_rng = random.Random(
            derive_stream_seed(seed, engine_name + "/schedule"))
        n = workload.profile.num_functions
        self._num_targets = n
        self._hot = max(1, min(n, round(n * hot_fraction)))
        self._cold = max(self._hot, min(n, round(n * cold_fraction)))
        # PCs of the driver's indirect dispatch calls (membership only).
        driver = workload.program.functions[-1]
        self._driver_pcs = frozenset(
            inst.address for block in driver.blocks
            for inst in block.instructions
            if inst.address in workload.behaviors)
        self._windows: List[Tuple[int, int]] = []
        self._last_phase = -1
        self._restricted: Dict[int, IndirectBehavior] = {}

    def _make_window(self, phase: int) -> Tuple[int, int]:
        n, rng = self._num_targets, self._schedule_rng
        if self._schedule == "static":
            if phase == 0:
                return rng.randrange(n), self._hot
            return self._windows[0]
        if self._schedule == "dynamic":
            return rng.randrange(n), rng.randint(self._hot, self._cold)
        # oscillating: size alternates hot/cold while the start drifts, so
        # a cold phase sweeps in mostly-new functions each oscillation.
        size = self._hot if phase % 2 == 0 else self._cold
        return (phase * max(1, n // 7)) % n, size

    def _window(self) -> Tuple[int, int]:
        phase = self._index // self._segment_length
        while len(self._windows) <= phase:
            self._windows.append(self._make_window(len(self._windows)))
        if phase != self._last_phase:
            self._last_phase = phase
            self._sticky_targets.clear()
            self._restricted.clear()
        return self._windows[phase]

    def _pick_function_entry(self, phase: int) -> int:
        start, size = self._window()
        functions = self.workload.program.functions
        indices = [(start + offset) % self._num_targets
                   for offset in range(size)]
        weights = [self._zipf_weights[index] for index in indices]
        index = self._rng.choices(indices, weights=weights, k=1)[0]
        return functions[index].entry

    def _sticky_indirect_target(self, pc: int,
                                behavior: IndirectBehavior) -> int:
        if pc not in self._driver_pcs:
            return super()._sticky_indirect_target(pc, behavior)
        start, size = self._window()
        restricted = self._restricted.get(pc)
        if restricted is None:
            indices = [(start + offset) % len(behavior.targets)
                       for offset in range(min(size, len(behavior.targets)))]
            raw = [behavior.weights[index] + 1e-9 for index in indices]
            total = sum(raw)
            restricted = IndirectBehavior(
                targets=tuple(behavior.targets[index] for index in indices),
                weights=tuple(weight / total for weight in raw))
            self._restricted[pc] = restricted
        return super()._sticky_indirect_target(pc, restricted)


class PhasedEngine(WorkloadEngine):
    """Footprint-scheduled walks over a synthetic program image.

    Splits the trace into ``segment_length``-instruction phases; within a
    phase the driver only dispatches into a window of the function set.
    ``hot_fraction``/``cold_fraction`` size the window as fractions of
    the workload's function count.  Subclasses fix the schedule shape.
    """

    schedule: ClassVar[str] = ""
    PARAM_SPECS: ClassVar[ParamSpecs] = {
        "gen_seed": (int, 1),
        "segment_length": (int, 4000),
        "hot_fraction": (float, 0.12),
        "cold_fraction": (float, 0.75),
    }

    def _validate(self) -> None:
        if self.params["segment_length"] < 1:
            raise WorkloadError("segment_length must be >= 1")
        hot = self.params["hot_fraction"]
        cold = self.params["cold_fraction"]
        if not 0.0 < hot <= 1.0 or not 0.0 < cold <= 1.0:
            raise WorkloadError(
                "hot_fraction and cold_fraction must be in (0, 1]")
        if hot > cold:
            raise WorkloadError(
                f"hot_fraction ({hot}) must not exceed "
                f"cold_fraction ({cold})")

    def build_trace(self, num_instructions: int, seed: int) -> Trace:
        from .suite import get_workload
        workload = get_workload(self.workload,
                                seed=self.params["gen_seed"])
        walker = _PhasedWalker(
            workload, seed, engine_name=self.name,
            schedule=self.schedule,
            segment_length=self.params["segment_length"],
            hot_fraction=self.params["hot_fraction"],
            cold_fraction=self.params["cold_fraction"])
        return walker.walk(num_instructions)


@register_engine
class StaticPhaseEngine(PhasedEngine):
    """One fixed hot window for the whole trace (steady-state footprint)."""

    name = "phased-static"
    schedule = "static"


@register_engine
class DynamicPhaseEngine(PhasedEngine):
    """Window teleports to a random place (and size) every segment."""

    name = "phased-dynamic"
    schedule = "dynamic"


@register_engine
class OscillatingPhaseEngine(PhasedEngine):
    """Footprint oscillates hot/cold with a drifting start — the capsa
    OSCILLATING shape, and the worst case for capacity-tuned caches."""

    name = "oscillating"
    schedule = "oscillating"


# Importing the adversarial module registers adv-fragment / adv-smc /
# adv-pwconflict.  Deliberately at the bottom: adversarial.py subclasses
# WorkloadEngine, so everything above must exist first.
from . import adversarial as _adversarial  # noqa: E402,F401  (registration)
