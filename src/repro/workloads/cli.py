"""CLI verbs for workload engines and packed trace files.

``repro trace-pack`` materializes a trace from any registered engine and
writes it as a compact ``.uoptrace`` file (with provenance recording how
it was produced); ``repro trace-info`` integrity-checks a packed file and
summarizes it.  The ``--engine`` / ``--engine-params`` flags added by
:func:`add_engine_arguments` are shared with run/sweep/bench/fuzz/serve.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict

from ..common.errors import ConfigError
from .engine import create_engine, engine_names
from .tracefile import pack_trace, trace_info


def add_engine_arguments(parser: argparse.ArgumentParser,
                         default: str = "synthetic") -> None:
    """Add the shared ``--engine`` / ``--engine-params`` flags."""
    parser.add_argument("--engine", default=default,
                        choices=list(engine_names()),
                        help=f"workload engine (default: {default})")
    parser.add_argument("--engine-params", default="", metavar="JSON",
                        help="engine parameters as a JSON object, e.g. "
                             "'{\"path\": \"bm.uoptrace\"}'")


def engine_params_from_args(args: argparse.Namespace) -> Dict[str, Any]:
    """Parse ``--engine-params`` into a dict (strictly a JSON object)."""
    raw = getattr(args, "engine_params", "")
    if not raw:
        return {}
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ConfigError(
            f"--engine-params is not valid JSON: {error}") from error
    if not isinstance(params, dict):
        raise ConfigError(
            f"--engine-params must be a JSON object, got {type(params).__name__}")
    return params


def add_trace_pack_arguments(parser: argparse.ArgumentParser) -> None:
    from ..core.experiment import DEFAULT_SEED
    from .suite import WORKLOAD_NAMES
    parser.add_argument("workload", choices=list(WORKLOAD_NAMES),
                        help="suite workload the engine builds on")
    add_engine_arguments(parser)
    parser.add_argument("--instructions", type=int, default=100_000,
                        help="trace length to pack (default: 100000)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"walk seed (default: {DEFAULT_SEED})")
    parser.add_argument("--out", default=None,
                        help="output path (default: "
                             "<workload>_<engine>_<seed>.uoptrace)")


def run_trace_pack(args: argparse.Namespace) -> int:
    engine = create_engine(args.engine, workload=args.workload,
                           params=engine_params_from_args(args))
    trace = engine.build_trace(args.instructions, args.seed)
    out = args.out or \
        f"{args.workload}_{args.engine}_{args.seed}.uoptrace"
    provenance = dict(engine.describe())
    provenance["instructions"] = args.instructions
    provenance["seed"] = args.seed
    written = pack_trace(trace, out, provenance=provenance)
    stats = trace.branch_stats()
    print(f"packed {len(trace)} records "
          f"({stats.branches} branches) -> {out} ({written} bytes, "
          f"{written / len(trace):.2f} B/record)")
    return 0


def add_trace_info_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="packed .uoptrace file")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable JSON instead of text")


def run_trace_info(args: argparse.Namespace) -> int:
    info = trace_info(args.path)
    if args.as_json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"{info['path']}: format v{info['version']}, "
          f"{info['file_bytes']} bytes, integrity OK")
    print(f"  name        {info['name']}")
    print(f"  records     {info['records']}")
    provenance = info["provenance"]
    if provenance:
        rendered = ", ".join(f"{key}={provenance[key]}"
                             for key in sorted(provenance))
        print(f"  provenance  {rendered}")
    program = info["program"]
    print(f"  program     {program['functions']} functions, "
          f"{program['static_instructions']} instructions, "
          f"{program['static_uops']} uops, "
          f"{program['code_bytes']} code bytes")
    dynamic = info["dynamic"]
    print(f"  dynamic     {dynamic['uops']} uops, "
          f"{dynamic['branches']} branches "
          f"({dynamic['taken_branches']} taken, "
          f"density {dynamic['branch_density']})")
    sections = info["sections"]
    rendered = ", ".join(f"{name}={sections[name]}B"
                         for name in sorted(sections))
    print(f"  sections    {rendered}")
    return 0
