"""Workload inputs, drawn from the workload seed, and the ops they run.

Each workload's inputs are built before timing starts. Ops come in blocks
whose mix is fixed (a permutation of the cohort thresholds or of the
retention sizes, or one pass of the CLI commands), and a run only stops at
a block boundary, so every run times the same mix however many blocks fit
in it.

The ``traced_*`` functions replay an engagekit entry point by calling its
public functions in the same order, with a span around each call. Their
output must equal the entry point's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import engagekit as ek
from engagekit import cli as ek_cli
from engagekit.config import CONFIG_ENV_VAR

COHORT_STEPS = 1000
# Intervention thresholds of one block of users, in a seeded order: 0 is off,
# 0.3 the packaged default (fires on ~89% of steps), 0.45 fires on ~97%.
# With three of four users on the slower at-risk path, the median user sits
# well inside that cluster instead of at its edge.
COHORT_BLOCK = (0.0, 0.3, 0.3, 0.45)
COHORT_BLOCKS = 60

# Two 1000-row pipelines (the packaged default size) per 8000-row one: the
# sizes separate per-call numpy overhead from per-row work, and the 2:1 mix
# keeps the median pipeline inside the 1000-row cluster.
RETENTION_SIZES = (1000, 8000, 1000)
RETENTION_BLOCKS = 4

# (label, subcommand, size): README-sized commands, where interpreter start
# and imports dominate, then large artifacts, where the simulators, stdout
# and CSV writes dominate.
CLI_MIX = (
    ("gen-data", "gen-data", 1000),
    ("case-study", "case-study", 0),
    ("simulate-session", "simulate-session", 10),
    ("simulate-timeline", "simulate-timeline", 200),
    ("gen-data-large", "gen-data", 100000),
    ("simulate-session-large", "simulate-session", 20000),
    ("simulate-timeline-large", "simulate-timeline", 20000),
)


@dataclasses.dataclass(frozen=True)
class CohortUser:
    initial: ek.UserState
    cfg: ek.TimelineConfig


@dataclasses.dataclass(frozen=True)
class CliCommand:
    label: str
    sub: str
    size: int
    seed: int

    def output(self, directory) -> str:
        return os.path.join(directory, f"{self.label}.csv")

    def argv(self, directory) -> list[str]:
        config = os.path.join(directory, "config.json")
        if self.sub == "gen-data":
            return ["gen-data", "--n", str(self.size), "--seed", str(self.seed), "--out", self.output(directory)]
        if self.sub == "case-study":
            return ["case-study", "--config", config]
        if self.sub == "simulate-session":
            return ["simulate-session", "--tasks", str(self.size), "--seed", str(self.seed),
                    "--out", self.output(directory)]
        return ["simulate-timeline", "--config", config, "--steps", str(self.size),
                "--out", self.output(directory)]


@dataclasses.dataclass(frozen=True)
class CliInputs:
    commands: tuple[CliCommand, ...]
    config: dict  # the packaged profile with drawn seeds; output paths unset

    def write_config(self, directory) -> None:
        """Write the run config into directory, with its outputs there too."""
        raw = {**self.config, "output": {
            "report_json": os.path.join(directory, "case_study_report.json"),
            "confusion_csv": os.path.join(directory, "confusion_matrix.csv"),
        }}
        Path(directory, "config.json").write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")


def build_cohort(seed: int, cfg: ek.RunConfig, blocks: int = COHORT_BLOCKS) -> list[CohortUser]:
    rnd = random.Random(seed)
    base = cfg.timeline_config(steps=COHORT_STEPS)
    users = []
    for _ in range(blocks):
        for threshold in rnd.sample(COHORT_BLOCK, len(COHORT_BLOCK)):
            initial = ek.UserState(engagement=rnd.random(), skill=0.5 * rnd.random())
            user_cfg = dataclasses.replace(base, intervention_threshold=threshold, seed=rnd.getrandbits(64))
            users.append(CohortUser(initial, user_cfg))
    return users


def build_retention(seed: int, cfg: ek.RunConfig, blocks: int = RETENTION_BLOCKS) -> list[ek.RunConfig]:
    rnd = random.Random(seed)
    runs = []
    for _ in range(blocks):
        for n in RETENTION_SIZES:
            runs.append(dataclasses.replace(
                cfg,
                case_study=dataclasses.replace(cfg.case_study, num_samples=n),
                seeds=dataclasses.replace(cfg.seeds, data=rnd.getrandbits(64), split=rnd.getrandbits(64)),
            ))
    return runs


def build_cli(seed: int, cfg: ek.RunConfig) -> CliInputs:
    del cfg  # the CLI reads its config from the file the benchmark writes
    rnd = random.Random(seed)
    raw = json.loads(ek.default_config_path().read_text(encoding="utf-8"))
    raw["seeds"] = {key: rnd.getrandbits(64) for key in ("data", "split", "fit", "sim")}
    commands = tuple(CliCommand(label, sub, size, rnd.getrandbits(64)) for label, sub, size in CLI_MIX)
    return CliInputs(commands, raw)


BUILDERS = {"cohort": build_cohort, "retention": build_retention, "cli": build_cli}


def build(workload: str, seed: int, cfg: ek.RunConfig):
    return BUILDERS[workload](seed, cfg)


def block_size(workload: str) -> int:
    return {"cohort": len(COHORT_BLOCK), "retention": len(RETENTION_SIZES), "cli": len(CLI_MIX)}[workload]


def calibration_interval(workload: str) -> int:
    """Ops between machine-speed calibrations: a block of cohort users or
    retention pipelines; on cli every command, whose children's speed
    follows the machine only from moment to moment."""
    return {"cohort": len(COHORT_BLOCK), "retention": len(RETENTION_SIZES), "cli": 1}[workload]


# --- untraced ops -----------------------------------------------------------


@dataclasses.dataclass
class CommandResult:
    label: str
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_kb: int = 0


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop(CONFIG_ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs CLI invocations one at a time through spawn.py, which reports
    each child's own peak resident set."""

    def __init__(self, env: dict) -> None:
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawn.py"))], env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def run(self, cmd: CliCommand, directory) -> CommandResult:
        out, err = os.path.join(directory, "stdout.txt"), os.path.join(directory, "stderr.txt")
        request = {"argv": [sys.executable, "-m", "engagekit", *cmd.argv(directory)],
                   "cwd": str(directory), "stdout": out, "stderr": err}
        t0 = perf_counter()
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        seconds = perf_counter() - t0
        return CommandResult(cmd.label, reply["returncode"], Path(out).read_text(encoding="utf-8"),
                             Path(err).read_text(encoding="utf-8"), seconds, reply["max_rss_kb"])


def cli_command(cmd: CliCommand, directory, launcher: Launcher) -> tuple[CommandResult, ek.Dataset | None]:
    """Run one command of the mix as a subprocess; read a generated dataset
    back. Returns the command result and the dataset read, if any."""
    result = launcher.run(cmd, directory)
    dataset = ek.read_dataset_csv(cmd.output(directory)) if cmd.sub == "gen-data" and result.returncode == 0 else None
    return result, dataset


def cli_main(cmd: CliCommand, directory) -> tuple[int, str]:
    """Call the CLI entry point in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ek_cli.main(cmd.argv(directory))
    return code, out.getvalue()


# --- traced replays ---------------------------------------------------------


def traced_timeline(user: CohortUser, tracer) -> list[ek.TimelinePoint]:
    """run_timeline, one public call at a time; per-step spans are folded."""
    cfg = user.cfg
    with tracer.span("simulator.run_timeline", "simulator"):
        with tracer.span("rng.make_rng", "rng"):
            rng = ek.make_rng(cfg.seed)
        state = user.initial
        points = []
        for _ in range(cfg.steps):
            t0 = perf_counter()
            state, point = ek.step_user(state, cfg, rng)
            t1 = perf_counter()
            tracer.fold("simulator.step_user", "simulator", t1 - t0)
            if cfg.interventions_enabled:
                t0 = perf_counter()
                at_risk = ek.detect_at_risk(point, cfg.intervention_threshold)
                t1 = perf_counter()
                tracer.fold("simulator.detect_at_risk", "simulator", t1 - t0)
                if at_risk:
                    t0 = perf_counter()
                    state = ek.apply_intervention(state, cfg)
                    t1 = perf_counter()
                    tracer.fold("simulator.apply_intervention", "simulator", t1 - t0)
                    point = dataclasses.replace(point, intervened=True)
            points.append(point)
    return points


def traced_case_study(run_cfg: ek.RunConfig, tracer):
    """run_case_study, one public call at a time.

    Returns the report, the fitted model and the training rows.
    """
    with tracer.span("case_study.run_case_study", "case_study"):
        with tracer.span("regression.generate_synthetic_dataset", "regression"):
            data = ek.generate_synthetic_dataset(run_cfg.case_study.num_samples, run_cfg.seeds.data)
        with tracer.span("regression.train_test_split", "regression"):
            split = ek.train_test_split(data, run_cfg.case_study.test_fraction, run_cfg.seeds.split)
        with tracer.span("regression.fit_logistic", "regression"):
            model = ek.fit_logistic(split.train, run_cfg.fit)
        with tracer.span("regression.predict_label", "regression"):
            predictions = [ek.predict_label(model, e, r) for e, r in zip(split.test.engagement, split.test.reward)]
        labels = split.test.retention.tolist()
        with tracer.span("regression.evaluate", "regression"):
            acc = ek.accuracy(predictions, labels)
            cm = ek.confusion(predictions, labels)
        report = ek.CaseStudyReport(
            accuracy=acc, confusion=cm, positive_rate=data.positive_rate,
            w_engagement=model.w_engagement, w_reward=model.w_reward, bias=model.bias,
            epochs_used=model.epochs_used,
        )
    return report, model, split.train


def traced_cli_command(cmd: CliCommand, directory, tracer) -> tuple[dict[str, float], str]:
    """One subcommand as cli.main runs it, writing its artifacts into
    directory and its stdout lines to a string. Returns the seconds of the
    spans the metrics need, by name, and the stdout."""
    out = cmd.output(directory)
    config = os.path.join(directory, "config.json")
    seconds = {}
    stdout = io.StringIO()
    with tracer.span(f"cli.{cmd.sub}", "cli"):
        if cmd.sub == "gen-data":
            with tracer.span("regression.generate_synthetic_dataset", "regression"):
                data = ek.generate_synthetic_dataset(cmd.size, cmd.seed)
            with tracer.span("storage.write_dataset_csv", "storage") as s:
                ek.write_dataset_csv(out, data)
            seconds["write"] = s.seconds
            print(f"wrote {len(data)} rows to {out} (positive rate {data.positive_rate:.4f})", file=stdout)
        elif cmd.sub == "case-study":
            with tracer.span("config.load_config", "config"):
                cfg = ek.load_config(config)
            with tracer.span("case_study.run_case_study", "case_study"):
                report = ek.run_case_study(cfg)
            payload = json.dumps(report.to_dict(), indent=2)
            Path(cfg.output.report_json).write_text(payload + "\n", encoding="utf-8")
            with tracer.span("storage.write_confusion_csv", "storage"):
                ek.write_confusion_csv(cfg.output.confusion_csv, report.confusion)
            print(payload, file=stdout)
        elif cmd.sub == "simulate-session":
            with tracer.span("simulator.simulate_session", "simulator"):
                steps = ek.simulate_session(cmd.size, cmd.seed)
            with tracer.span("storage.write_session_csv", "storage") as s:
                ek.write_session_csv(out, steps)
            seconds["write"] = s.seconds
            for t in steps:
                print(f"Task {t.task_index}: Engagement: {t.engagement:.2f}, Reward: {t.reward:.2f}, "
                      f"Difficulty: {t.difficulty:.2f}, Success: {t.success}", file=stdout)
        else:
            with tracer.span("config.load_config", "config"):
                cfg = ek.load_config(config)
            with tracer.span("config.timeline_config", "config"):
                timeline_cfg = cfg.timeline_config(steps=cmd.size)
                initial = cfg.initial_user_state()
            with tracer.span("simulator.run_timeline", "simulator") as s:
                points = ek.run_timeline(initial, timeline_cfg)
            seconds["simulate"] = s.seconds
            with tracer.span("storage.write_timeline_csv", "storage") as s:
                ek.write_timeline_csv(out, points)
            seconds["write"] = s.seconds
            mean_retention = sum(p.retention_prob for p in points) / len(points)
            print(f"steps={len(points)} final_skill={points[-1].skill:.4f} "
                  f"mean_retention_prob={mean_retention:.4f} "
                  f"interventions={sum(p.intervened for p in points)}", file=stdout)
    return seconds, stdout.getvalue()
