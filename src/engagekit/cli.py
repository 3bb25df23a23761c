"""Command-line interface.

Subcommands:
    gen-data           write a synthetic retention dataset CSV
    case-study         run generate -> split -> fit -> evaluate, emit report
    simulate-session   run the short task loop, print per-task lines
    simulate-timeline  run a long-horizon user timeline, write trace CSV

The run configuration is resolved from --config, then the ENGAGEKIT_CONFIG
environment variable, then the packaged default profile. Every command is
deterministic under fixed seeds: repeated invocations produce byte-identical
files. Errors go to stderr; exit status is 0 on success, 2 for configuration
problems, 1 otherwise.

Each command imports only the modules it reads: ``gen-data`` loads
``rng`` and ``storage`` alone; ``simulate-session`` adds ``simulator``;
``config`` (which imports ``simulator`` and ``models``) comes in with the
two commands that read a configuration; the numpy-backed modules
(``regression``, ``case_study``) with ``case-study`` alone. Every command
takes its random numbers by ``rng``'s rule, so ``numpy.random`` is imported
only for more draws than the pure-Python budget holds: ``gen-data`` at
over 131072 rows, never ``case-study`` at its default size. ``gen-data``
checks its arguments where it takes its draws, before it touches the output
path, then writes its rows a chunk at a time instead of building the
``Dataset`` that ``regression.generate_synthetic_dataset`` returns; its
file and stdout are that dataset's, bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._spec import POSITIVE_COUNT, ConfigError
from .rng import _raw_draws
from .storage import (
    _CHUNK_ROWS,
    _write_dataset_chunks,
    write_case_study_files,
    write_session_csv,
    write_timeline_csv,
)

__all__ = ["main", "build_parser"]


_CONFIG_HELP = "config JSON path (default: $ENGAGEKIT_CONFIG or packaged profile)"


def _load_config(explicit: str | None):
    """The run config, from the path the module doc's resolution order
    gives."""
    from .config import CONFIG_ENV_VAR, default_config_path, load_config

    return load_config(explicit or os.environ.get(CONFIG_ENV_VAR) or default_config_path())


def _cmd_gen_data(args: argparse.Namespace) -> int:
    positives = _write_dataset_chunks(args.out, _synthetic_chunks(args.n, args.seed))
    print(f"wrote {args.n} rows to {args.out} (positive rate {positives / args.n:.4f})")
    return 0


def _synthetic_chunks(n: int, seed: int):
    """The rows of ``regression.generate_synthetic_dataset(n, seed)``, bit
    for bit, as an iterator of (engagement, reward, retention) lists of at
    most _CHUNK_ROWS rows each, drawn without numpy where ``rng``'s rule
    allows. It checks n, then the seed (the draws check it), as that
    function does, and takes its draws before it returns.

    The dataset draws n engagements, then n rewards, so row i reads draws i
    and n + i. Reward is the draw times 10 and the label is the criterion
    0.5*e + 0.5*r > 5, computed in Python floats with the IEEE operations
    numpy's ufuncs apply, in the same order, so they round alike.
    """
    n = POSITIVE_COUNT.check("n", n)
    draws = _raw_draws(seed, 2 * n)

    def chunk(start: int):
        stop = min(start + _CHUNK_ROWS, n)
        engagement = draws[start:stop]
        reward = draws[n + start:n + stop]
        if not isinstance(draws, list):  # numpy's array, converted a chunk at a time
            engagement, reward = engagement.tolist(), reward.tolist()
        reward = [x * 10.0 for x in reward]
        return engagement, reward, [1 if 0.5 * e + 0.5 * r > 5.0 else 0 for e, r in zip(engagement, reward)]

    return map(chunk, range(0, n, _CHUNK_ROWS))


def _cmd_case_study(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    from .case_study import run_case_study  # after the config: a bad one costs no numpy import

    report = run_case_study(cfg)
    payload = json.dumps(report.to_dict(), indent=2)
    write_case_study_files(cfg.output.report_json, payload + "\n", cfg.output.confusion_csv, report.confusion)
    print(payload)
    return 0


def _cmd_simulate_session(args: argparse.Namespace) -> int:
    from .simulator import simulate_session

    POSITIVE_COUNT.check("tasks", args.tasks)
    steps = simulate_session(args.tasks, args.seed)
    write_session_csv(args.out, steps)
    sys.stdout.writelines(
        f"Task {s.task_index}: Engagement: {s.engagement:.2f}, "
        f"Reward: {s.reward:.2f}, Difficulty: {s.difficulty:.2f}, "
        f"Success: {s.success}\n"
        for s in steps
    )
    return 0


def _cmd_simulate_timeline(args: argparse.Namespace) -> int:
    from .simulator import run_timeline

    cfg = _load_config(args.config)
    timeline_cfg = cfg.timeline_config(steps=args.steps)
    points = run_timeline(cfg.initial_user_state(), timeline_cfg)
    write_timeline_csv(args.out, points)
    mean_retention = sum(p.retention_prob for p in points) / len(points)
    fired = sum(p.intervened for p in points)
    print(
        f"steps={len(points)} final_skill={points[-1].skill:.4f} "
        f"mean_retention_prob={mean_retention:.4f} interventions={fired}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engagekit",
        description="Adaptive gamification models, retention prediction, and learner simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic retention dataset CSV")
    p.add_argument("--n", type=int, default=1000, help="number of samples (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="data seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("case-study", help="run the retention pipeline and emit a report")
    p.add_argument("--config", help=_CONFIG_HELP)
    p.set_defaults(func=_cmd_case_study)

    p = sub.add_parser("simulate-session", help="simulate a short task session")
    p.add_argument("--tasks", type=int, default=10, help="number of tasks (default 10)")
    p.add_argument("--seed", type=int, default=0, help="session seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate_session)

    p = sub.add_parser("simulate-timeline", help="simulate a long-horizon user timeline")
    p.add_argument("--config", help=_CONFIG_HELP)
    p.add_argument("--steps", type=int, help="override the configured step count")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate_timeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        for violation in err.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
