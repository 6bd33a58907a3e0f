"""The three xmpc benchmark workloads.

Every workload is a closed loop in one process: the next operation starts
only when the previous one has finished.  A run sets up its inputs several
times (the median is ``setup_s``), then repeats passes until the requested
seconds have elapsed (at least one pass), then checks the outputs.

Why each workload exists:

* ``month_explained``: the README pipeline after training.  ``xmpc run`` for
  a month with an event every day (744 intervals, each with 25-pair MPC,
  four exact Shapley attributions and a plant step), ``xmpc explain`` of
  every timestep in deterministic and in stub-LLM mode, then a seeded series
  of ``xmpc ask`` questions.  Attribution (``shapley`` plus large-batch
  ``predict_batch``) does most of the work, so a faster Shapley kernel shows
  here and nowhere else.  It also drives ``hub`` persistence, ``explain``,
  ``charts`` and ``llm``.
* ``control_only``: the same month, models and calendar, driven as a
  receding-horizon loop of ``mpc.optimize`` then ``testbed.step`` with no
  attribution.  ``mpc`` and single-row ``predict`` do all the work and
  ``shapley`` none, so a vectorised MPC shows here and a Shapley change must
  leave it unchanged.  Its setpoints must equal ``xmpc run``'s bit for bit,
  which gates that attribution never feeds back into control.
* ``sysid_train``: ``xmpc excite`` then ``xmpc train`` for fx and fy.
  Full-batch forward and backward passes, no ``predict_batch`` and no
  ``shapley``, so a change to the forward pass that slows training shows
  here as a regression.

End-to-end metrics, the same names on every workload (``END_TO_END``):

=============  =====================  =====================  =================
metric         month_explained        control_only           sysid_train
=============  =====================  =====================  =================
setup_s        import + excitation + both trained models     import + config
pass_s         xmpc run (incl. save)  one month of            xmpc excite +
               + explain, both modes  optimize + step         train fx + fy
op_ms_p90      one xmpc ask           one control decision   one xmpc train
cooling_kwh    realised cooling of the closed-loop month      of the excitation
peak_rss_mb    peak resident memory of the benchmark process
=============  =====================  =====================  =================

The per-layer metrics of the traced run, with the end-to-end metric each
should move, are listed in ``spans.PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from xmpc import cli, hub, mpc, surrogate, testbed

import checks
from spans import SpanRecorder, per_layer_metrics


@dataclass(frozen=True)
class Size:
    """How much work one run does.  ``FULL`` is what the benchmark measures."""

    excite_days: int = 31
    episode_days: int = 31
    epochs: int = 4000
    learning_rate: float = 3e-3
    background_rows: int = 256
    asks: int = 40
    ask_warmup: int = 10
    setup_reps: int = 3
    brute_force_intervals: int = 24
    prefix_days: int = 2  # control_only's check against run_episode
    quality_gate: bool = True  # criterion 07 accuracy holds for FULL only


FULL = Size()
# The test-suite size: the mini_models settings of tests/conftest.py.
TINY = Size(
    excite_days=4, episode_days=2, epochs=120, learning_rate=1e-3, background_rows=32,
    asks=3, ask_warmup=1, setup_reps=2, brute_force_intervals=4, prefix_days=1, quality_gate=False,
)

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.  On a
# shared 2-vCPU VM the machine's speed drifts by up to about 20 % over
# minutes, and operations run in a fast or a slow mode in varying shares, so
# the time metrics get bounds just under setup_s's 0.25.  Latency is gated at
# p90, which sits in the slow mode and repeats; p50 falls in either mode from
# run to run and is printed, not gated.  Memory and energy repeat to 1 %.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.24),
    ("op_ms_p90", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("cooling_kwh", "kWh", "lower", 0.05),
]

QUESTIONS = (
    "Why precool this hour?",
    "Which feature drove the cooling power prediction?",
    "Was the demand-response limit met?",
    "Why was this setpoint chosen?",
)


@dataclass(frozen=True)
class Seeds:
    """Seeds derived from the workload seed; seed 0 gives the test fixtures.

    The testbed itself (weather, occupancy, physics) is the fixtures'
    ``TestbedConfig()`` for every seed; it is passed to the CLI as a config
    file because ``xmpc excite`` and ``xmpc run`` otherwise reseed the
    weather from ``--seed``.
    """

    excitation: int
    run: int  # also the DR calendar seed, as in ``xmpc run --seed``

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        return cls(excitation=42 + seed, run=7 + seed)


class WorkloadFailure(RuntimeError):
    """An operation failed so badly that the workload cannot continue."""


@dataclass
class Plant:
    """What the controller sees: testbed config, calendar, profiles, models."""

    cfg: testbed.TestbedConfig
    calendar: dict[int, float]
    days: int
    fx: surrogate.SurrogateModel
    fy: surrogate.SurrogateModel
    profiles: list = field(init=False)

    def __post_init__(self):
        self.profiles = [testbed.synth_disturbances(d, self.cfg) for d in range(self.days + 1)]

    def problem(self, t: int, zone_temp_c: float) -> mpc.MpcProblem:
        """The MPC problem ``hub.run_episode`` builds at interval ``t``."""
        fx, fy = self.fx, self.fy
        return mpc.MpcProblem(
            zone_temp_c=zone_temp_c,
            d1=self.profiles[t // 24][t % 24],
            d2=self.profiles[(t + 1) // 24][(t + 1) % 24],
            p_limit_t1_w=testbed.power_limit_at(self.calendar, t + 1),
            p_limit_t2_w=testbed.power_limit_at(self.calendar, t + 2),
            # Looked up at call time so the traced run sees surrogate.predict.
            fx=lambda f: surrogate.predict(fx, f),
            fy=lambda f: surrogate.predict(fy, f),
        )


@dataclass
class Trajectory:
    setpoints: list[float] = field(default_factory=list)
    zone_temps: list[float] = field(default_factory=list)
    cooling_w: list[float] = field(default_factory=list)
    limits_w: list[float] = field(default_factory=list)
    decisions: list[tuple[float, float, float]] = field(default_factory=list)


def control_month(plant: Plant, latencies_ms: list[float] | None = None) -> Trajectory:
    """Receding-horizon loop: optimize, apply the first setpoint, step."""
    out = Trajectory()
    state = testbed.ZoneState(0, 24.0)
    for t in range(24 * plant.days):
        problem = plant.problem(t, state.zone_temp_c)
        started = time.perf_counter()
        decision = mpc.optimize(problem)
        if latencies_ms is not None:
            latencies_ms.append((time.perf_counter() - started) * 1e3)
        next_state, hvac = testbed.step(state, problem.d1, decision.u1_c, plant.cfg)
        out.setpoints.append(decision.u1_c)
        out.zone_temps.append(state.zone_temp_c)
        out.cooling_w.append(hvac.cooling_rate_w)
        out.limits_w.append(problem.p_limit_t1_w)
        out.decisions.append((decision.u1_c, decision.u2_c, decision.cost))
        state = next_state
    return out


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


@dataclass
class Result:
    end_to_end: dict[str, tuple[float, str, int]]  # name -> (value, unit, samples)
    per_layer: dict[str, tuple[float, str]]
    extra: dict[str, tuple[float, str, int]]  # per-workload named views, printed only
    checks: list[checks.Check]
    attempted: int
    failed: int
    passes: int

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c.ok for c in self.checks)


class Run:
    """State of one benchmark run: inputs, samples, operations, checks."""

    def __init__(self, seed: int, size: Size, workdir: Path, recorder=None):
        self.seed = seed
        self.seeds = Seeds.derive(seed)
        self.size = size
        self.dir = workdir
        self.recorder = recorder
        self.samples: dict[str, list[float]] = {}
        self.checks: list[checks.Check] = []
        self.attempted = 0
        self.failed = 0
        self.cooling_kwh = 0.0
        self.extra: dict[str, tuple[float, str, int]] = {}

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def op(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        self.failed += 0 if ok else n

    def check(self, check: checks.Check) -> None:
        self.checks.append(check)
        self.attempted += check.ops + 1
        self.failed += check.bad + (0 if check.ok else 1)

    def phase(self, name: str):
        return self.recorder.span(name) if self.recorder else contextlib.nullcontext()

    def cli(self, *argv) -> tuple[float, str]:
        """Run one ``xmpc`` subcommand in-process; returns (seconds, stdout)."""
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        elapsed = time.perf_counter() - started
        if code != 0:
            self.op(False)
            raise WorkloadFailure(f"xmpc {argv[0]} exited {code}")
        return elapsed, out.getvalue()

    def path(self, name: str) -> Path:
        return self.dir / name


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_models(run: Run):
    """Excitation data and both trained models, saved and reloaded."""
    size, seeds = run.size, run.seeds
    cfg = testbed.TestbedConfig()
    testbed.save_config(cfg, run.path("testbed.json"))
    data = testbed.run_excitation(size.excite_days, cfg, seed=seeds.excitation)
    train_cfg = surrogate.TrainConfig(
        epochs=size.epochs, learning_rate=size.learning_rate, background_rows=size.background_rows
    )
    trained = []
    for schema, name in ((surrogate.FX_SCHEMA, "fx.json"), (surrogate.FY_SCHEMA, "fy.json")):
        model = surrogate.train(data, schema, train_cfg)
        surrogate.save(model, run.path(name))
        trained.append(model)
        run.op(True)
    plant = Plant(
        cfg=cfg,
        calendar=testbed.generate_dr_calendar(size.episode_days, 1.0, seed=seeds.run),
        days=size.episode_days,
        fx=surrogate.load(run.path("fx.json")),
        fy=surrogate.load(run.path("fy.json")),
    )
    return {"data": data, "trained": trained, "plant": plant, "trajectories": []}


def setup_sysid(run: Run):
    testbed.save_config(testbed.TestbedConfig(), run.path("testbed.json"))
    return {"digests": []}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def month_pass(run: Run, inputs) -> None:
    size, n = run.size, 24 * run.size.episode_days
    episode = run.path("episode.jsonl")
    for d in ("docs_det", "docs_llm"):
        shutil.rmtree(run.path(d), ignore_errors=True)
    run_s, out = run.cli(
        "run", "--days", size.episode_days, "--fx", run.path("fx.json"),
        "--fy", run.path("fy.json"), "--seed", run.seeds.run, "--dr-prob", 1.0,
        "--config", run.path("testbed.json"), "--out", episode, "--no-timing",
    )
    run.op(f"wrote {n} records" in out, n)
    det_s, out_det = run.cli("explain", "--episode", episode, "--out", run.path("docs_det"))
    llm_s, out_llm = run.cli(
        "explain", "--episode", episode, "--mode", "llm", "--gateway", "stub",
        "--out", run.path("docs_llm"),
    )
    for text in (out_det, out_llm):
        run.op(f"wrote {n} documents" in text, n)
    run.sample("run_s", run_s)
    run.sample("explain_s", det_s + llm_s)
    run.sample("pass_s", run_s + det_s + llm_s)

    # The first asks after a month run are slower while the process heap
    # settles; they count as operations but only the steady state is timed.
    rng = random.Random(run.seed)
    for i in range(size.ask_warmup + size.asks):
        t, question = rng.randrange(n), rng.choice(QUESTIONS)
        ask_s, answer = run.cli("ask", "--episode", episode, "--t", t, "--question", question)
        run.op(bool(answer.strip()))
        if i >= size.ask_warmup:
            run.sample("op_ms", ask_s * 1e3)


def control_pass(run: Run, inputs) -> None:
    latencies: list[float] = []
    started = time.perf_counter()
    trajectory = control_month(inputs["plant"], latencies)
    run.sample("pass_s", time.perf_counter() - started)
    run.samples.setdefault("op_ms", []).extend(latencies)
    run.op(True, len(trajectory.setpoints))
    inputs["trajectories"].append(trajectory)


def sysid_pass(run: Run, inputs) -> None:
    size, seeds = run.size, run.seeds
    data = run.path("data.csv")
    excite_s, _ = run.cli(
        "excite", "--days", size.excite_days, "--seed", seeds.excitation,
        "--config", run.path("testbed.json"), "--out", data,
    )
    total = excite_s
    for target in ("fx", "fy"):
        train_s, out = run.cli(
            "train", "--data", data, "--target", target, "--epochs", size.epochs,
            "--lr", size.learning_rate, "--out", run.path(f"{target}.json"),
        )
        run.sample("op_ms", train_s * 1e3)
        run.op(f"for {size.epochs} epochs" in out)
        total += train_s
    run.sample("pass_s", total)
    inputs["digests"].append(
        [hashlib.sha256(run.path(f"{m}.json").read_bytes()).hexdigest() for m in ("fx", "fy")]
    )


# ---------------------------------------------------------------------------
# Checks and quality figures (untimed, untraced)
# ---------------------------------------------------------------------------


def _dr_figures(run: Run, cooling_w: list[float], limits_w: list[float]) -> None:
    n_cycle = len(cooling_w)
    run.cooling_kwh = sum(cooling_w) / 1000.0
    violations = sum(c > lim for c, lim in zip(cooling_w, limits_w))
    events = [lim - c for c, lim in zip(cooling_w, limits_w) if lim < testbed.NORMAL_POWER_LIMIT_W]
    run.extra["dr_violation_hours"] = (float(violations), "h", n_cycle)
    run.extra["dr_worst_margin_w"] = (min(events) if events else 0.0, "W", len(events))


def _brute_force_cases(run: Run, plant: Plant, zone_temps, decisions):
    rng = random.Random(run.seed + 1)
    k = min(run.size.brute_force_intervals, len(zone_temps))
    ts = sorted(rng.sample(range(len(zone_temps)), k))
    return [(t, plant.problem(t, zone_temps[t]), decisions[t]) for t in ts]


def _check_trained_models(run: Run, inputs) -> None:
    run.check(checks.models(
        run.path("fx.json"), run.path("fy.json"), inputs["data"], inputs["trained"],
        run.size.quality_gate,
    ))


def month_checks(run: Run, inputs) -> None:
    plant = inputs["plant"]
    episode = hub.load_episode(run.path("episode.jsonl"))
    run.check(checks.additivity(episode))
    run.check(checks.scenarios(episode))
    control = control_month(plant)
    run.check(checks.same_trajectory(
        "control_matches_episode", control.setpoints, [r.setpoint_c for r in episode.records]
    ))
    decisions = [(r.decision.u1_c, r.decision.u2_c, r.decision.cost) for r in episode.records]
    zone_temps = [r.zone_temp_c for r in episode.records]
    run.check(checks.mpc_brute_force(_brute_force_cases(run, plant, zone_temps, decisions)))
    for label in ("det", "llm"):
        run.check(checks.documents(run.path(f"docs_{label}"), len(episode.records), label))
    _check_trained_models(run, inputs)
    _dr_figures(
        run, [r.cooling_rate_w for r in episode.records], [r.p_limit_t1_w for r in episode.records]
    )
    n = len(episode.records)
    run_s, explain_s, ask_ms = (run.samples[k] for k in ("run_s", "explain_s", "op_ms"))
    run.extra["run_intervals_per_s"] = (n / statistics.median(run_s), "1/s", len(run_s))
    run.extra["explain_docs_per_s"] = (2 * n / statistics.median(explain_s), "1/s", len(explain_s))
    run.extra["ask_ms_p50"] = (percentile(ask_ms, 50), "ms", len(ask_ms))
    run.extra["ask_ms_p90"] = (percentile(ask_ms, 90), "ms", len(ask_ms))


def control_checks(run: Run, inputs) -> None:
    plant, trajectories = inputs["plant"], inputs["trajectories"]
    first = trajectories[0]
    for i, other in enumerate(trajectories[1:], start=2):
        run.check(checks.same_trajectory(
            f"control_pass_{i}_repeats_pass_1", other.setpoints, first.setpoints
        ))
    prefix = hub.run_episode(
        run.size.prefix_days, plant.cfg, plant.fx, plant.fy, plant.calendar, seed=run.seeds.run
    )
    run.check(checks.same_trajectory(
        "control_matches_episode_prefix", first.setpoints, [r.setpoint_c for r in prefix.records]
    ))
    cases = _brute_force_cases(run, plant, first.zone_temps, first.decisions)
    run.check(checks.mpc_brute_force(cases))
    _check_trained_models(run, inputs)
    _dr_figures(run, first.cooling_w, first.limits_w)
    lat = run.samples["op_ms"]
    run.extra["decision_ms_p50"] = (percentile(lat, 50), "ms", len(lat))
    run.extra["decision_ms_p98"] = (percentile(lat, 98), "ms", len(lat))


def sysid_checks(run: Run, inputs) -> None:
    data = testbed.ExcitationData.from_csv(run.path("data.csv"))
    rows = len(data)
    run.check(checks.Check(
        "excitation_rows", rows == 24 * run.size.excite_days,
        f"{rows} rows (want {24 * run.size.excite_days})",
    ))
    digests = inputs["digests"]
    run.check(checks.Check(
        "training_repeats", all(d == digests[0] for d in digests),
        f"{len(digests)} passes produced {len({tuple(d) for d in digests})} distinct model pair(s)",
    ))
    run.check(checks.models(
        run.path("fx.json"), run.path("fy.json"), data, None, run.size.quality_gate
    ))
    run.cooling_kwh = float(sum(data["next_cooling_rate_w"])) / 1000.0
    passes = run.samples["pass_s"]
    run.extra["sysid_s"] = (statistics.median(passes), "s", len(passes))


@dataclass(frozen=True)
class Workload:
    why: str
    setup: object
    run_pass: object
    check: object


WORKLOADS = {
    "month_explained": Workload(
        "xmpc run + explain (both modes) + ask on a month; attribution dominates",
        setup_models, month_pass, month_checks,
    ),
    "control_only": Workload(
        "the same month as MPC + plant steps only; single-row predict dominates, no Shapley",
        setup_models, control_pass, control_checks,
    ),
    "sysid_train": Workload(
        "xmpc excite + train fx and fy; full-batch training, no predict_batch or Shapley",
        setup_sysid, sysid_pass, sysid_checks,
    ),
}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    workdir: Path,
    trace: bool = False,
    size: Size = FULL,
    import_s: float = 0.0,
    trace_path: Path | None = None,
) -> Result:
    """Set up, run passes for ``seconds``, check, and collect every metric."""
    workload = WORKLOADS[name]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    recorder = SpanRecorder() if trace else None
    run = Run(seed, size, workdir, recorder)
    passes = 0
    try:
        if recorder:
            recorder.install()
        try:
            for _ in range(size.setup_reps):
                with run.phase("setup"):
                    started = time.perf_counter()
                    inputs = workload.setup(run)
                    run.sample("setup_s", import_s + time.perf_counter() - started)
            started = time.perf_counter()
            while passes == 0 or time.perf_counter() - started < seconds:
                with run.phase("pass"):
                    workload.run_pass(run, inputs)
                passes += 1
        finally:
            if recorder:
                recorder.uninstall()
        workload.check(run, inputs)
    except (ValueError, RuntimeError, OSError) as exc:
        # xmpc's own errors subclass ValueError (bad input) or RuntimeError
        # (failed computation); either ends the workload as a failed run.
        run.check(checks.Check("workload_completed", False, f"{type(exc).__name__}: {exc}"))

    per_layer = {}
    if recorder:
        totals = recorder.cycle_totals()
        if run.samples.get("pass_s"):
            totals.pass_s = statistics.median(run.samples["pass_s"])
        per_layer = per_layer_metrics(totals)
        if trace_path is not None:
            recorder.write(trace_path)

    end_to_end = {}
    if run.samples.get("pass_s") and run.samples.get("op_ms"):
        ops = run.samples["op_ms"]
        end_to_end = {
            "setup_s": (statistics.median(run.samples["setup_s"]), "s", len(run.samples["setup_s"])),
            "pass_s": (statistics.median(run.samples["pass_s"]), "s", len(run.samples["pass_s"])),
            "op_ms_p90": (percentile(ops, 90), "ms", len(ops)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
            "cooling_kwh": (run.cooling_kwh, "kWh", 1),
        }
    if run.attempted:
        run.extra["fail_ratio"] = (run.failed / run.attempted, "1", run.attempted)
    return Result(
        end_to_end=end_to_end, per_layer=per_layer,
        extra=run.extra, checks=run.checks, attempted=max(run.attempted, 1),
        failed=run.failed, passes=passes,
    )

