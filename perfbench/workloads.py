"""The benchmark's two workloads: job lists, job loops and output checks.

* ``iso_time_search`` runs Garvey, OpenTuner and Artemis in turn on one
  (stencil, device, seed) under the paper's 100 s iso-time cost budget,
  through ``compare_stencil`` with one repetition: one baseline cell of
  the iso-time comparison (Fig 9).
* ``service_mix`` drives a ``repro serve`` daemon over HTTP with two
  tune jobs outstanding: five of every six are cache-warm csTuner full
  tunes with warm starts, the sixth is served from a golden record.

Each workload draws its job list from the seed: one job per pair of a
fixed, cost-homogeneous set of (stencil, device) pairs, plus a few
jobs whose pairs and tuner seeds are seeded (see :func:`_draw`). Set-up runs the whole list once, untimed; the timed
window then makes whole passes over it, so every job counts equally
often. Outputs are payload dicts in the form of the service's
``result.json`` (:func:`repro.service.executor.result_payload`).

Every job is timed next to a host-speed probe (:func:`host_probe`), so
that its wall time can be scaled to a reference host speed
(:attr:`Outcome.scaled_s`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from layers import Span, Tracer, layer_totals, spans_from_dump, union_length

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_times.json"

#: Simulated tuning cost budget of every job: the paper's iso-time
#: budget (Section V-C).
BUDGET_S = 100.0
ISO_TUNERS = ("Garvey", "OpenTuner", "Artemis")

#: Cost-homogeneous (stencil, device) pairs per workload: a csTuner
#: full tune takes about the same time on each of these.
SERVICE_PAIRS = (
    ("addsgd4", "A100"), ("addsgd4", "V100"),
    ("rhs4center", "A100"), ("rhs4center", "V100"),
)
ISO_PAIRS = tuple(
    (s, d) for s in ("addsgd4", "addsgd6") for d in ("A100", "V100")
)
#: Seeded jobs on top of the one-per-pair core of every job list.
EXTRA_JOBS = 1
#: Seconds allowed for one pass over each job list. On a 2-CPU host a
#: pass took 5.5-7.5 s for iso_time_search and 9-12 s for service_mix.
#: The timed window makes the whole number of passes closest to
#: --seconds at this allowance: 5 and 4 at 40 s, so 25 and 24 timed
#: jobs, enough for a tail percentile with 10 jobs beyond it.
PASS_S = {"iso_time_search": 8.0, "service_mix": 10.5}

#: A best time may differ from its noise-free time by this many times
#: the simulator's relative measurement noise.
NOISE_BAND_SIGMAS = 5.0

#: Service client: jobs kept outstanding and the status poll interval.
OUTSTANDING = 2
POLL_S = 0.05
#: Service jobs of the set-up pass or of the timed window that take
#: longer than this have hung: give up inside the 180 s run limit.
DRIVE_LIMIT_S = 120.0

#: Seconds :func:`host_probe` takes at the reference host speed: the
#: median on a 2-CPU x86-64 VM at 2.0 GHz with Python 3.11.
PROBE_REF_S = 0.005
#: Probes (median taken) between two in-process jobs.
PROBE_REPS = 5


def host_probe() -> float:
    """Seconds for a fixed piece of pure-Python work that calls nothing
    in repro: the host's speed at that moment.

    Where cores are shared with other tenants, their speed drifts by up
    to 2x over seconds to minutes, which moves every job's wall time
    with it. Scaling a job's wall time by ``PROBE_REF_S / probe``, with
    probes taken around that job, measures the program at one host
    speed. The probe runs no repro code, so a change to the program
    moves the scaled times as much as the raw ones.
    """
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i & 1023] = i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Job:
    stencil: str
    device: str
    seed: int
    golden: bool = False

    @property
    def key(self) -> str:
        kind = "golden" if self.golden else "s"
        return f"{self.stencil}@{self.device}/{kind}{self.seed}"


@dataclass
class Outcome:
    """One finished job of a pass or of the timed window."""

    job: Job
    wall_s: float
    payloads: list[dict[str, Any]] = field(default_factory=list)
    error: str | None = None
    traced: bool = False
    #: (layer, start, end) of client-side spans (service workload).
    client_spans: list[tuple[str, float, float]] = field(default_factory=list)
    submitted: float = 0.0
    job_id: str = ""
    retries: int = 0
    #: Host-speed probes taken around the job (at least one).
    probes: list[float] = field(default_factory=list)

    @property
    def scaled_s(self) -> float:
        """``wall_s`` at the reference host speed (:func:`host_probe`)."""
        return self.wall_s * PROBE_REF_S / statistics.fmean(self.probes)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.payloads, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _draw(
    rng: random.Random, pairs: tuple[tuple[str, str], ...], extra: int
) -> list[Job]:
    """A fixed core of one job per pair at tuner seed 0 (``repro tune``'s
    default), then ``extra`` jobs on seeded pairs with seeded tuner
    seeds.

    The core keeps most of a run's work the same across seeds: tuner
    seeds alone move a job's cost by up to 2x, which would otherwise
    dominate the spread between runs of different seeds. Its order is
    fixed too, because with two service jobs outstanding a job's
    latency is its own run plus that of the job before it.
    """
    jobs = [Job(s, d, 0) for s, d in pairs]
    jobs += [Job(s, d, rng.randrange(1, 1 << 16))
             for s, d in rng.choices(pairs, k=extra)]
    return jobs


def job_list(workload: str, seed: int) -> list[Job]:
    """The seeded job list of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "iso_time_search":
        return _draw(rng, ISO_PAIRS, EXTRA_JOBS)
    if workload == "service_mix":
        # One job in six is golden-served. With two jobs outstanding,
        # a golden job and the full tune after it each wait for one
        # full tune instead of two; at one in four that would split the
        # latencies evenly between two modes and put the median on the
        # edge between them.
        golden = Job(*rng.choice(SERVICE_PAIRS), 0, golden=True)
        return _draw(rng, SERVICE_PAIRS, EXTRA_JOBS) + [golden]
    raise ValueError(f"unknown workload {workload!r}")


def traced_turn(i: int, n: int) -> bool:
    """Whether the ``i``-th job of a traced window is traced: every other
    job, shifted each pass over the ``n`` jobs so that every distinct
    job is measured both ways."""
    return (i + i // n) % 2 == 1


def _forget_process_memos() -> None:
    """Drop process-wide memos so no job is served from an earlier one."""
    from repro.gpusim import noise

    noise._PAIR_TERM_CACHE.clear()


# ---------------------------------------------------------------------------
# In-process workload
# ---------------------------------------------------------------------------

def run_iso_job(job: Job) -> list[dict[str, Any]]:
    """One Fig 9 baseline cell: Garvey, OpenTuner, Artemis in turn."""
    from repro.core import Budget
    from repro.experiments.comparison import compare_stencil
    from repro.gpusim.device import get_device
    from repro.service.executor import result_payload
    from repro.stencil.suite import get_stencil

    results = compare_stencil(
        get_stencil(job.stencil), get_device(job.device),
        Budget(max_cost_s=BUDGET_S),
        tuners=ISO_TUNERS, repetitions=1, seed=job.seed,
    )
    return [result_payload(results[name][0]) for name in ISO_TUNERS]


class InProcessWorkload:
    """Closed loop, one job in flight, in the benchmark's own process."""

    name = "iso_time_search"

    def __init__(self, seed: int) -> None:
        self.jobs = job_list(self.name, seed)
        self.tracer: Tracer | None = None
        #: Summed layer totals and counters over traced jobs.
        self.totals: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.unattributed: list[float] = []
        self.journal_lines = 0
        #: Every host-speed probe taken, in order.
        self.probes: list[float] = []

    def setup(self, trace: bool = False) -> None:
        pass

    def _probe(self) -> float:
        p = statistics.median(host_probe() for _ in range(PROBE_REPS))
        self.probes.append(p)
        return p

    def _loop(self, turns: list[tuple[Job, bool]]) -> list[Outcome]:
        """Run (job, traced) turns back to back, probing the host's
        speed before the first job and after every job."""
        out = []
        before = self._probe()
        for job, traced in turns:
            o = self._one(job, traced)
            after = self._probe()
            o.probes = [before, after]
            out.append(o)
            before = after
        return out

    def _one(self, job: Job, traced: bool) -> Outcome:
        _forget_process_memos()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
            tracer.job = job.key
        start = time.perf_counter()
        try:
            payloads = run_iso_job(job)
            error = None
        except Exception as exc:  # a failed job is counted, not raised
            payloads, error = [], f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            self._absorb(tracer, start, start + wall)
        return Outcome(job, wall, payloads, error, traced=traced)

    def _absorb(self, tracer: Tracer, start: float, end: float) -> None:
        spans = tracer.spans
        for k, v in layer_totals(spans).items():
            self.totals[k] = self.totals.get(k, 0.0) + v
        for k, v in tracer.take_counters().items():
            self.counters[k] = self.counters.get(k, 0.0) + v
        top = [(s.start, s.end) for s in spans if s.parent is None]
        self.unattributed.append((end - start) - union_length(top))
        spans.clear()

    def pass_once(self) -> list[Outcome]:
        return self._loop([(job, False) for job in self.jobs])

    def window(self, passes: int, trace: bool) -> tuple[list[Outcome], float]:
        """Run ``passes`` whole passes over the job list; return the
        outcomes and the window length."""
        if trace:
            self.tracer = Tracer()
        n = len(self.jobs)
        start = time.perf_counter()
        out = self._loop([(self.jobs[i % n], trace and traced_turn(i, n))
                          for i in range(passes * n)])
        return out, time.perf_counter() - start

    def scaled_window_s(self, outcomes: list[Outcome], window_s: float,
                        probes: list[float]) -> float:
        """The window at the reference host speed. One job is in flight
        at a time, so that is the sum of the jobs' scaled times (the
        probes between them left out)."""
        return math.fsum(o.scaled_s for o in outcomes)

    def close(self) -> float:
        return 0.0

    def service_metrics(self, outcomes: list[Outcome]) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------

class ServiceWorkload:
    """``repro serve`` in its own process; one client thread keeps
    :data:`OUTSTANDING` tune jobs in flight."""

    name = "service_mix"

    def __init__(self, seed: int, state_dir: Path, src_dir: Path) -> None:
        self.jobs = job_list(self.name, seed)
        self.state_dir = state_dir
        self.src_dir = src_dir
        self.cache_dir = state_dir / "cache"
        self.db_dir = state_dir / "db"
        self.serve_dir = state_dir / "serve"
        self.spans_path = state_dir / "daemon-spans.json"
        self.proc: subprocess.Popen[bytes] | None = None
        self.client: Any = None
        self.totals: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.unattributed: list[float] = []
        self.journal_lines = 0
        #: Every host-speed probe taken, in order.
        self.probes: list[float] = []
        self.trace = False
        self._window_start = 0.0

    # -- set-up ------------------------------------------------------------

    def _populate(self) -> None:
        """Fill the evaluation cache and results database: a quick
        Artemis tune per pair at tuner seed 0, ingested, with golden
        records promoted. The same for every benchmark seed."""
        from repro.core import Budget
        from repro.experiments.tasks import tuner_run_task
        from repro.parallel.pool import Task, WorkerPool
        from repro.resultsdb.db import ResultsDB

        tasks = [
            Task(fn=tuner_run_task,
                 args=(s, d, "Artemis", Budget(max_cost_s=BUDGET_S),
                       0, 0),
                 tag=f"populate:{s}@{d}")
            for s, d in SERVICE_PAIRS
        ]
        with WorkerPool(1, self.cache_dir) as pool:
            pool.map(tasks)
        db = ResultsDB(self.db_dir)
        db.ingest_cache_dir(self.cache_dir)
        db.update_golden()

    def _boot(self, trace: bool) -> None:
        from repro.service.client import ServiceClient, ServiceError

        serve_args = [
            "serve", "--state-dir", str(self.serve_dir), "--workers", "1",
            "--cache-dir", str(self.cache_dir),
            "--results-db", str(self.db_dir),
        ]
        if trace:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--spans", str(self.spans_path), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src_dir), env.get("PYTHONPATH")) if p
        )
        log = open(self.state_dir / "daemon.log", "wb")  # noqa: SIM115
        try:
            self.proc = subprocess.Popen(
                cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()
        endpoint = self.serve_dir / "daemon.json"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            if endpoint.exists():
                try:
                    url = json.loads(endpoint.read_text())["url"]
                    self.client = ServiceClient(url, timeout_s=30.0)
                    self.client.healthz()
                    return
                except (ValueError, KeyError, ServiceError):
                    pass
            time.sleep(0.02)
        raise RuntimeError("daemon did not become healthy within 30 s")

    def setup(self, trace: bool = False) -> None:
        self.trace = trace
        self._populate()
        self._boot(trace)

    # -- driving -----------------------------------------------------------

    def _params(self, job: Job) -> dict[str, Any]:
        if job.golden:
            return {"stencil": job.stencil, "device": job.device,
                    "tuner": "csTuner", "seed": job.seed,
                    "budget_s": BUDGET_S, "db_fastpath": True}
        return {"stencil": job.stencil, "device": job.device,
                "tuner": "csTuner", "seed": job.seed,
                "budget_s": BUDGET_S, "warm_start": True,
                "db_fastpath": False}

    def _drive(self, jobs: Any, trace: bool = False) -> list[Outcome]:
        """Keep OUTSTANDING jobs in flight until ``jobs`` (an iterator of
        (index, job)) runs out; wait for the stragglers. A traced job
        carries an idempotency key starting with ``trace-``, which tells
        the traced daemon to trace it. Every status poll is preceded by
        one host-speed probe, which goes to every job in flight."""
        client = self.client
        live: dict[str, Outcome] = {}
        running_seen: dict[str, float] = {}
        done: list[Outcome] = []
        exhausted = False
        hard_stop = time.perf_counter() + DRIVE_LIMIT_S
        while True:
            while len(live) < OUTSTANDING and not exhausted:
                item = next(jobs, None)
                if item is None:
                    exhausted = True
                    break
                i, job = item
                traced = trace and traced_turn(i, len(self.jobs))
                t0 = time.perf_counter()
                reply = client.submit("tune", self._params(job),
                                      key=f"trace-{i}" if traced else None)
                t1 = time.perf_counter()
                o = Outcome(job, 0.0, traced=traced, submitted=t0,
                            job_id=reply["job"]["id"])
                o.client_spans.append(("http.submit", t0, t1))
                live[o.job_id] = o
            if not live:
                return done
            if time.perf_counter() > hard_stop:
                raise RuntimeError(
                    f"service jobs did not finish within {DRIVE_LIMIT_S:.0f} s"
                )
            probe = host_probe()
            self.probes.append(probe)
            for o in live.values():
                o.probes.append(probe)
            t0 = time.perf_counter()
            rows = client.jobs()
            t1 = time.perf_counter()
            share = len(live)
            for o in live.values():
                o.client_spans.append(("http.get", t0, t0 + (t1 - t0) / share))
            for row in rows:
                o = live.get(row["id"])
                if o is None:
                    continue
                state = row["state"]
                if state == "running" and o.job_id not in running_seen:
                    running_seen[o.job_id] = t1
                if state not in ("done", "errored", "cancelled"):
                    continue
                g0 = time.perf_counter()
                self._finish(o, row, running_seen.get(o.job_id, t1))
                g1 = time.perf_counter()
                o.client_spans.append(("http.get", g0, g1))
                o.wall_s = g1 - o.submitted
                done.append(live.pop(o.job_id))
            time.sleep(POLL_S)

    def _finish(self, o: Outcome, row: dict[str, Any], running_at: float) -> None:
        o.retries = int(row.get("retries", 0))
        o.client_spans.append(("queue.wait", o.client_spans[0][2], running_at))
        if row["state"] != "done":
            o.error = f"job {o.job_id} ended {row['state']}"
            return
        self.client.result(o.job_id)  # the result in hand
        path = self.serve_dir / "jobs" / o.job_id / "result.json"
        o.payloads = [json.loads(path.read_text(encoding="utf-8"))]

    def pass_once(self) -> list[Outcome]:
        return self._drive(enumerate(self.jobs))

    def window(self, passes: int, trace: bool) -> tuple[list[Outcome], float]:
        self.journal_lines = count_lines(self.cache_dir / "journal.jsonl")
        n = len(self.jobs)
        cycle = ((i, self.jobs[i % n]) for i in range(passes * n))
        start = self._window_start = time.perf_counter()
        out = self._drive(cycle, trace)
        return out, time.perf_counter() - start

    def scaled_window_s(self, outcomes: list[Outcome], window_s: float,
                        probes: list[float]) -> float:
        """The window at the reference host speed. The window's
        ``probes`` come one per poll, evenly spread over it."""
        return window_s * PROBE_REF_S / statistics.fmean(probes)

    def close(self) -> float:
        """Stop the daemon; return its peak RSS in MB (0 if unknown)."""
        import resource

        proc, self.proc = self.proc, None
        if proc is None:
            return 0.0
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def service_metrics(self, outcomes: list[Outcome]) -> dict[str, float]:
        """Fold the daemon's spans into the traced outcomes' totals."""
        if not self.trace or not self.spans_path.exists():
            return {}
        dump = json.loads(self.spans_path.read_text(encoding="utf-8"))
        spans = spans_from_dump(dump["spans"])
        runs = {s.job: s for s in spans if s.layer == "service.run" and s.job}
        traced = [o for o in outcomes if o.traced and o.job_id in runs]
        job_spans = [s for s in spans if s.job in runs]
        for k, v in layer_totals(job_spans).items():
            self.totals[k] = self.totals.get(k, 0.0) + v
        queue = [s for s in spans
                 if s.layer == "queue.append" and s.start >= self._window_start]
        per_window_job = len(outcomes) / max(1, len(traced))
        for k, v in layer_totals(queue).items():
            # Queue appends run on HTTP threads too; spread the window's
            # total over its jobs, then scale to the traced-job count.
            self.totals[k] = self.totals.get(k, 0.0) + v / per_window_job
        for k, v in dump["counters"].items():
            self.counters[k] = self.counters.get(k, 0.0) + v
        client: list[Span] = []
        for o in traced:
            run = runs[o.job_id]
            # The daemon's claim time is the exact end of the queue wait.
            o.client_spans = [
                sp if sp[0] != "queue.wait" else ("queue.wait", sp[1], run.start)
                for sp in o.client_spans
            ]
            for layer, a, b in o.client_spans:
                s = Span(layer, None, o.job_id)
                s.start, s.end = a, b
                client.append(s)
            top = [(a, b) for _, a, b in o.client_spans]
            top.append((run.start, run.end))
            self.unattributed.append(o.wall_s - union_length(top))
        for k, v in layer_totals(client).items():
            self.totals[k] = self.totals.get(k, 0.0) + v
        return {
            "retries": float(sum(o.retries for o in traced)),
            "errored": float(sum(1 for o in traced if o.error)),
        }


def count_lines(path: Path) -> int:
    try:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)
    except OSError:
        return 0


def make_workload(name: str, seed: int, state_dir: Path, src_dir: Path) -> Any:
    if name == "service_mix":
        return ServiceWorkload(seed, state_dir, src_dir)
    return InProcessWorkload(seed)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks one distinct job's payloads; a failure is a reason string."""

    def __init__(self) -> None:
        self.reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
        self._spaces: dict[tuple[str, str], Any] = {}

    def _space(self, stencil: str, device: str) -> tuple[Any, Any, Any]:
        from repro.gpusim.device import get_device
        from repro.gpusim.simulator import GpuSimulator
        from repro.space.space import build_space
        from repro.stencil.suite import get_stencil

        key = (stencil, device)
        if key not in self._spaces:
            pattern, dev = get_stencil(stencil), get_device(device)
            self._spaces[key] = (
                pattern, build_space(pattern, dev), GpuSimulator(device=dev)
            )
        return self._spaces[key]

    def check(self, job: Job, payloads: list[dict[str, Any]],
              warm_started: bool) -> str | None:
        from repro.space.setting import Setting

        if not payloads:
            return "no result"
        for p in payloads:
            pattern, space, sim = self._space(p["stencil"], p["device"])
            if p["best_setting"] is None:
                return f"{p['tuner']}: no best setting"
            setting = Setting(p["best_setting"])
            if not space.is_valid(setting):
                return f"{p['tuner']}: best setting is invalid"
            true = sim.true_time(pattern, setting)
            if abs(p["best_time_s"] - true) > NOISE_BAND_SIGMAS * sim.noise * true:
                return (f"{p['tuner']}: best time {p['best_time_s']!r} is "
                        f"outside the noise band of {true!r}")
            if job.golden and p["evaluations"] != 0:
                return "golden job ran evaluations"
            if warm_started and not p["meta"].get("warm_seeds", 0) > 0:
                return "warm-started job reports no warm seeds"
        return None

    def ratios(self, payloads: list[dict[str, Any]]) -> list[float]:
        """best_time_s / reference time, one per payload."""
        return [
            p["best_time_s"] / self.reference["times"][p["device"]][p["stencil"]]
            for p in payloads
        ]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
