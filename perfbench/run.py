"""engagekit benchmark.

    python3 perfbench/run.py --workload {cohort,retention,cli} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the named workload runs for S seconds of timed ops and the
end-to-end metrics are reported. With --trace 1 the layer microbenchmarks
run, then one fixed cycle of every workload is replayed with spans, which
gives every per-layer metric; the named workload's cycle also gives the
self time of each layer and the tracing overhead. Outputs are checked
outside the timed region; an op whose check fails, or that raises, counts
as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full report, and with --trace 1 the
spans, are also written under .perfbench/ in the checkout.

The package is imported from src/ of the checkout this script sits in; the
script exits with status 2 and prints no result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One process with no extra threads does the work: numpy's BLAS would
# otherwise start a worker thread per core. Children inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("cohort", "retention", "cli")
SETUP_PROBES = 9
MAX_ERRORS = 20

# Cohort users whose timelines are also checked against the reference
# recurrence (every other user gets the invariant checks only).
REFERENCE_EVERY = 4
TRACE_COHORT_USERS = 24
TRACED_LAYERS = ("rng", "simulator", "regression", "case_study", "config", "storage", "cli")
THROUGHPUT_NAMES = {"cohort": "user_steps_per_s", "retention": "pipelines_per_s", "cli": "passes_per_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one engagekit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed seconds of ops (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Time what a fresh process pays before its first op: importing
    engagekit, loading the packaged config and building the inputs."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import engagekit
    import workloads

    cfg = engagekit.load_config(engagekit.default_config_path())
    workloads.build(workload, seed, cfg)
    print(repr(perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed: int) -> dict:
    import engagekit
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "engagekit": engagekit.__version__, "nproc": os.cpu_count(), "cpu_model": cpu,
        "commit": commit(), "workload_seed": seed,
    }


class Tally:
    """Attempted and failed ops, with the first error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{label}: {errors[0]}")


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            rank = max(0, -(-int(pct * n) // 100) - 1)
            return {"percentile": pct, "value_ms": ordered[rank] * 1e3, "n": n}
    return None


# --- untraced runs ----------------------------------------------------------


def timed_loop(seconds: float, block: int, cal_every: int, op, check, calibrate, tally: Tally):
    """Run op(i) until `seconds` of op time have passed and a block is
    complete, with calibrate() before every cal_every-th op. op returns
    (output, work units); check(i, output) runs untimed. Returns the per-op
    seconds, the work completed and the calibration seconds."""
    times: list[float] = []
    cal: list[float] = []
    work = 0.0
    i = 0
    elapsed = 0.0
    while elapsed < seconds or i % block:
        if i % cal_every == 0:
            cal.append(calibrate())
        t0 = perf_counter()
        try:
            output, units = op(i)
        except Exception as err:  # a raising op is a failed op; keep measuring
            output, units, errors = None, 0, [f"{type(err).__name__}: {err}"]
        dt = perf_counter() - t0
        if output is not None:
            try:
                errors = check(i, output)
            except Exception as err:  # output the check cannot even read
                errors = [f"check raised {type(err).__name__}: {err}"]
        tally.record(f"op {i}", errors)
        if not errors:
            work += units
        times.append(dt)
        elapsed += dt
        i += 1
    return times, work, cal


def untraced(workload, inputs, seconds, ek, workloads, oracle, work_dir, tally) -> tuple[list, float, dict]:
    import calibrate as cal

    def calibrate():
        return cal.calibrate(workload)

    calibrate()  # warm-up, untimed: builds the loop's arrays and fills caches
    info: dict = {}
    if workload == "cohort":
        counts = [0, 0]

        def op(i):
            user = inputs[i % len(inputs)]
            points = ek.run_timeline(user.initial, user.cfg)
            return points, len(points)

        def check(i, points):
            user = inputs[i % len(inputs)]
            counts[0] += len(points)
            counts[1] += sum(p.intervened for p in points)
            return oracle.check_timeline(user.initial, user.cfg, points, i % REFERENCE_EVERY == 0)

        times, work, cal_s = timed_loop(seconds, workloads.block_size(workload),
                                        workloads.calibration_interval(workload), op, check, calibrate, tally)
        info["intervened_steps"], info["steps"] = counts[1], counts[0]
    elif workload == "retention":

        def op(i):
            return ek.run_case_study(inputs[i % len(inputs)]), 1

        def check(i, report):
            run_cfg = inputs[i % len(inputs)]
            errors = oracle.check_report(run_cfg, report)
            if i == 0:
                errors += oracle.check_fit(report, oracle.reference_fit(run_cfg))
            return errors

        times, work, cal_s = timed_loop(seconds, workloads.block_size(workload),
                                        workloads.calibration_interval(workload), op, check, calibrate, tally)
    else:
        directory = work_dir / "pass"
        directory.mkdir()
        inputs.write_config(directory)
        commands = inputs.commands
        hashes: dict = {}
        first_stdout: dict = {}
        per_command: dict = {}
        pass_peak_kb: dict = {}

        def op(i):
            return workloads.cli_command(commands[i % len(commands)], directory, launcher), 1 / len(commands)

        def check(i, output):
            cmd = commands[i % len(commands)]
            res, dataset = output
            per_command.setdefault(cmd.label, []).append(res.seconds)
            n = i // len(commands)
            pass_peak_kb[n] = max(pass_peak_kb.get(n, 0), res.max_rss_kb)
            if cmd.label not in first_stdout:
                errors = check_cli_command(inputs, directory, cmd, res, dataset, oracle)
                if not errors:
                    first_stdout[cmd.label] = res.stdout
                    hashes.update(artifact_hashes([cmd], directory, oracle))
                return errors
            # Later passes must write the bytes and print the stdout of the
            # run's first pass, which were parsed and checked in full.
            if res.returncode != 0:
                return [f"{cmd.label} exited {res.returncode}: {res.stderr.strip()[-300:]}"]
            errors = []
            if any(hashes[k] != v for k, v in artifact_hashes([cmd], directory, oracle).items()):
                errors.append(f"{cmd.label}: artifact bytes differ from the run's first pass")
            if res.stdout != first_stdout[cmd.label]:
                errors.append(f"{cmd.label}: stdout differs from the run's first pass")
            if dataset is not None and len(dataset) != cmd.size:
                errors.append(f"{cmd.label}: dataset read back has {len(dataset)} rows, expected {cmd.size}")
            return errors

        with workloads.Launcher(workloads.cli_env(SRC)) as launcher:
            times, work, cal_s = timed_loop(seconds, workloads.block_size(workload),
                                            workloads.calibration_interval(workload), op, check, calibrate, tally)
        passes = [sum(times[k:k + len(commands)]) for k in range(0, len(times), len(commands))]
        info["pass_ms_median"] = statistics.median(passes) * 1e3
        info["artifact_sha256"] = hashes
        info["command_wall_ms_median"] = {k: statistics.median(v) * 1e3 for k, v in per_command.items()}
        info["peak_rss_mb_per_pass"] = [kb / 1024.0 for kb in pass_peak_kb.values()]
        info["peak_rss_mb"] = statistics.median(pass_peak_kb.values()) / 1024.0
    info["speed_factor"] = cal.speed_factor(workload, cal_s)
    info["calibration_s"] = {"n": len(cal_s), "total": sum(cal_s), "median": statistics.median(cal_s)}
    return times, work, info


def command_artifacts(cmd, directory) -> dict[str, str]:
    """The files one command of the mix writes, by report label."""
    if cmd.sub == "case-study":
        return {name: os.path.join(directory, name) for name in ("case_study_report.json", "confusion_matrix.csv")}
    return {cmd.label: cmd.output(directory)}


def artifact_hashes(commands, directory, oracle) -> dict[str, str]:
    return {label: oracle.sha256_file(path)
            for cmd in commands for label, path in command_artifacts(cmd, directory).items()}


def check_cli_command(inputs, directory, cmd, res, dataset, oracle) -> list[str]:
    """Parse back and check what one command of the mix wrote and printed."""
    if res.returncode != 0:
        return [f"{cmd.label} exited {res.returncode}: {res.stderr.strip()[-300:]}"]
    if cmd.sub == "gen-data":
        errors = oracle.check_dataset_csv(cmd.output(directory), cmd.size)
        if dataset is None or len(dataset) != cmd.size:
            errors.append(f"{cmd.label}: dataset read back has {dataset and len(dataset)} rows, expected {cmd.size}")
        return errors
    if cmd.sub == "case-study":
        cs = inputs.config["case_study"]
        report, confusion = command_artifacts(cmd, directory).values()
        return oracle.check_case_study_files(report, confusion, res.stdout,
                                             round(cs["test_fraction"] * cs["num_samples"]))
    if cmd.sub == "simulate-session":
        return oracle.check_session_csv(cmd.output(directory), cmd.size, res.stdout)
    return oracle.check_timeline_csv(cmd.output(directory), cmd.size,
                                     inputs.config["timeline"]["intervention_threshold"])


def check_cli_outputs(inputs, directory, results, datasets, oracle) -> list[str]:
    """check_cli_command for a whole pass; datasets in gen-data order."""
    found = iter(datasets)
    errors = []
    for cmd, res in zip(inputs.commands, results):
        errors += check_cli_command(inputs, directory, cmd, res, next(found) if cmd.sub == "gen-data" else None, oracle)
    return errors


# --- traced cycles ----------------------------------------------------------


def cohort_cycle(users, tracer, ek, workloads, oracle, tally) -> tuple[dict, float, float]:
    untraced_s = traced_s = 0.0
    steps = fired = followed = recovered = 0
    for op_id, user in enumerate(users[:TRACE_COHORT_USERS]):
        tracer.op_id = op_id
        t0 = perf_counter()
        points = ek.run_timeline(user.initial, user.cfg)
        t1 = perf_counter()
        replay = workloads.traced_timeline(user, tracer)
        t2 = perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        errors = [] if replay == points else ["traced replay differs from run_timeline"]
        tally.record(f"cohort user {op_id}", errors + oracle.check_timeline(user.initial, user.cfg, points, True))
        counts = oracle.intervention_counts(points, user.cfg.intervention_threshold)
        steps += len(points)
        fired += counts[0]
        followed += counts[1]
        recovered += counts[2]
    metrics = {
        "simulator.step_us.cohort": untraced_s / steps * 1e6,
        "simulator.intervention_rate": fired / steps,
        "simulator.intervention_recovery_ratio": recovered / followed if followed else 0.0,
        "rng.generators_made": tracer.total("rng.make_rng")[0],
    }
    return metrics, untraced_s, traced_s


def retention_cycle(runs, tracer, ek, workloads, oracle, tally) -> tuple[dict, float, float]:
    untraced_s = traced_s = 0.0
    epochs = row_epochs = test_rows = maxed = 0
    grad_norm = 0.0
    cycle = runs[:len(workloads.RETENTION_SIZES)]
    for op_id, run_cfg in enumerate(cycle):
        tracer.op_id = op_id
        t0 = perf_counter()
        report = ek.run_case_study(run_cfg)
        t1 = perf_counter()
        replay, model, train = workloads.traced_case_study(run_cfg, tracer)
        t2 = perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        errors = [] if replay == report else ["traced replay differs from run_case_study"]
        errors += oracle.check_report(run_cfg, report)
        if op_id == 0:
            errors += oracle.check_fit(report, oracle.reference_fit(run_cfg))
        tally.record(f"retention pipeline {op_id}", errors)
        epochs += model.epochs_used
        row_epochs += model.epochs_used * len(train)
        test_rows += run_cfg.case_study.num_samples - len(train)
        maxed += model.epochs_used == run_cfg.fit.max_epochs
        grad = ek.loss_and_gradient(model, train)[1]
        grad_norm = max(grad_norm, float(sum(g * g for g in grad) ** 0.5))
    ops = len(cycle)
    fit_s = tracer.total("regression.fit_logistic")[1]
    metrics = {
        "regression.generate_s": tracer.total("regression.generate_synthetic_dataset")[1] / ops,
        "regression.split_s": tracer.total("regression.train_test_split")[1] / ops,
        "regression.fit_s": fit_s / ops,
        "regression.epoch_us": fit_s / epochs * 1e6,
        "regression.epoch_ns_per_row": fit_s / row_epochs * 1e9,
        "regression.predict_us_per_row": tracer.total("regression.predict_label")[1] / test_rows * 1e6,
        "regression.evaluate_s": tracer.total("regression.evaluate")[1] / ops,
        "regression.fit_epochs": epochs / ops,
        "regression.fit_max_epochs_ratio": maxed / ops,
        "regression.final_grad_norm": grad_norm,
        "case_study.run_s": untraced_s / ops,
        "case_study.self_s": tracer.self_seconds()["case_study"] / ops,
    }
    return metrics, untraced_s, traced_s


def cli_cycle(inputs, tracer, ek, workloads, oracle, tally, work_dir) -> tuple[dict, float, float]:
    """cli.main in-process for each command of the mix, then the same
    command replayed with spans; both read their datasets back."""
    plain, replay = work_dir / "cli-main", work_dir / "cli-traced"
    for directory in (plain, replay):
        directory.mkdir()
        inputs.write_config(directory)
    untraced_s = traced_s = 0.0
    results, spans, stdout_mismatch = [], {}, []
    for op_id, cmd in enumerate(inputs.commands):
        tracer.op_id = op_id
        t0 = perf_counter()
        code, stdout = workloads.cli_main(cmd, plain)
        t1 = perf_counter()
        spans[cmd.label], replay_stdout = workloads.traced_cli_command(cmd, replay, tracer)
        t2 = perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        results.append(workloads.CommandResult(cmd.label, code, stdout, "", t1 - t0))
        if replay_stdout != stdout.replace(str(plain), str(replay)):
            stdout_mismatch.append(cmd.label)
    generated = [cmd for cmd in inputs.commands if cmd.sub == "gen-data"]
    tracer.op_id = len(inputs.commands)
    t0 = perf_counter()
    datasets = [ek.read_dataset_csv(cmd.output(plain)) for cmd in generated]
    t1 = perf_counter()
    for cmd in generated:
        with tracer.span("storage.read_dataset_csv", "storage"):
            ek.read_dataset_csv(cmd.output(replay))
    traced_s += perf_counter() - t1
    untraced_s += t1 - t0

    errors = check_cli_outputs(inputs, plain, results, datasets, oracle)
    if artifact_hashes(inputs.commands, plain, oracle) != artifact_hashes(inputs.commands, replay, oracle):
        errors.append("traced replay wrote different artifact bytes than cli.main")
    if stdout_mismatch:
        errors.append(f"traced replay printed different stdout than cli.main for {stdout_mismatch}")
    tally.record("cli pass", errors)

    def rows_per_s(sub: str) -> float:
        cmds = [c for c in inputs.commands if c.sub == sub]
        return sum(c.size for c in cmds) / sum(spans[c.label]["write"] for c in cmds)

    written = [cmd.output(replay) for cmd in inputs.commands if cmd.sub != "case-study"]
    written.append(os.path.join(replay, "confusion_matrix.csv"))
    long_timeline = max((c for c in inputs.commands if c.sub == "simulate-timeline"), key=lambda c: c.size)
    metrics = {f"cli.main_ms.{r.label}": r.seconds * 1e3 for r in results if not r.label.endswith("-large")}
    metrics.update({
        "simulator.step_us.long": spans[long_timeline.label]["simulate"] / long_timeline.size * 1e6,
        "storage.write_dataset_rows_per_s": rows_per_s("gen-data"),
        "storage.read_dataset_rows_per_s":
            sum(c.size for c in generated) / tracer.total("storage.read_dataset_csv")[1],
        "storage.write_timeline_rows_per_s": rows_per_s("simulate-timeline"),
        "storage.write_session_rows_per_s": rows_per_s("simulate-session"),
        "storage.bytes_written": sum(os.path.getsize(p) for p in written),
    })
    return metrics, untraced_s, traced_s


def traced(workload, seed, cfg, ek, workloads, oracle, work_dir, tally) -> tuple[dict, dict, list]:
    import microbench
    from tracing import Tracer

    metrics = microbench.run_all(cfg, workloads.cli_env(SRC))
    tracers, info = [], {}
    for name in WORKLOADS:
        tracer = Tracer(name)
        inputs = workloads.build(name, seed, cfg)
        if name == "cohort":
            found, untraced_s, traced_s = cohort_cycle(inputs, tracer, ek, workloads, oracle, tally)
        elif name == "retention":
            found, untraced_s, traced_s = retention_cycle(inputs, tracer, ek, workloads, oracle, tally)
        else:
            found, untraced_s, traced_s = cli_cycle(inputs, tracer, ek, workloads, oracle, tally, work_dir)
        metrics.update(found)
        tracers.append(tracer)
        if name == workload:
            self_s = tracer.self_seconds()
            total = sum(self_s.values())
            for layer in TRACED_LAYERS:
                metrics[f"trace.self_pct.{layer}"] = 100.0 * self_s.get(layer, 0.0) / total
            metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
            info = {"self_s": self_s, "untraced_s": untraced_s, "traced_s": traced_s,
                    "overhead_s": traced_s - untraced_s}
    return metrics, info, tracers


# --- main -------------------------------------------------------------------


def result_line(spec: dict, values: dict, tally: Tally, trace: int) -> dict:
    group = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def run(args) -> tuple[dict, dict]:
    """Run one workload; return the result line and the full report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_before = os.getloadavg()[0]
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import engagekit as ek
    import oracle
    import workloads

    cfg = ek.load_config(ek.default_config_path())
    inputs = workloads.build(args.workload, args.seed, cfg)
    setup_in_process = perf_counter() - t0
    if not Path(ek.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"engagekit was imported from {ek.__file__}, not from {SRC}")

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    tally = Tally()
    report: dict = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed),
                    "load_avg_1m_before": load_before, "setup_in_process_s": setup_in_process}
    try:
        if args.trace:
            values, report["trace_info"], tracers = traced(
                args.workload, args.seed, cfg, ek, workloads, oracle, work_dir, tally)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as handle:
                for tracer in tracers:
                    tracer.write(handle)
            report["spans"] = str(spans_path.relative_to(ROOT))
        else:
            times, work, info = untraced(args.workload, inputs, args.seconds, ek, workloads, oracle,
                                         work_dir, tally)
            if args.workload != "cli":
                info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "setup_s": statistics.median(setup_samples),
                "work_per_ref_s": work / sum(times) * info["speed_factor"],
                "peak_rss_mb": info.pop("peak_rss_mb"),
            }
            report.update(info)
            report["work_per_s"] = work / sum(times)
            report[THROUGHPUT_NAMES[args.workload]] = report["work_per_s"]
            report["op_p50_ms"] = statistics.median(times) * 1e3
            report["op_tail_ms"] = tail(times)
            if len(times) > 1:
                report["op_ms_quartiles"] = [q * 1e3 for q in statistics.quantiles(times, n=4)]
            report["setup_s_samples"] = setup_samples
            report["ops"] = len(times)
            report["timed_s"] = sum(times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report["failed_ratio"] = tally.failed / tally.attempted
    report["errors"] = tally.errors
    report["load_avg_1m_after"] = os.getloadavg()[0]
    line = result_line(spec, values, tally, args.trace)
    report["result"] = line
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return line, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "engagekit" / "__init__.py").is_file():
        print(f"perfbench: no engagekit package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    line, report = run(args)
    print(json.dumps(report, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
