"""Crawl benchmark on the machine at hand.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 20 --trace 0

Generates a web-page corpus from ``--seed``, crawls it with ``RayCrawler`` in
fresh local Ray sessions of ``nproc`` CPUs, checks every crawl against the
sequential oracle, and prints one JSON object as the last (and only) line of
stdout: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones (see
README.md).  Ray's own output, the corpus fingerprint, the machine facts and
the per-crawl detail go to stderr.

A run repeats whole rounds until ``--seconds`` have passed.  A round is one
Ray session (two for ``resume``, which restarts between its halves); each
session is timed from ``ray.init`` through one warm-up pipeline
(``setup_s``), then runs its steps and shuts down.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

RUN_DEADLINE_S = 170  # whole run, including input generation and checks
TRANSFORM_DEADLINE_S = 10.0  # markdown transform, child start-up included
STOP_WAVE = 1  # the resume workload's first half stops after this wave

# corpus parameters (spider_ray.fixtures.build_corpus) and crawl settings
LIGHT = dict(n_hosts=16, pages_per_host=100, page_weight=1)
HEAVY = dict(n_hosts=8, pages_per_host=30, page_weight=16)
WORKLOADS = {
    "frontier": dict(corpus=LIGHT, config=dict(normalize=True), keep_pages=False,
                     rounds=[["crawl", "crawl"]]),
    "polite_scrape": dict(corpus=HEAVY,
                          config=dict(normalize=True, respect_robots_txt=True, delay_ms=200),
                          keep_pages=True, rounds=[["crawl", "transform"]]),
    "resume": dict(corpus=LIGHT, config=dict(normalize=True), keep_pages=False,
                   rounds=[["stop"], ["resume"]]),
}


class RssPeak:
    """Peak resident set size of this process while ``active`` is set,
    sampled every 10 ms from /proc/self/statm."""

    def __init__(self) -> None:
        self.active = threading.Event()
        self.peak = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        with open("/proc/self/statm") as f:
            while not self._stop.wait(0.01):
                if self.active.is_set():
                    f.seek(0)
                    self.peak = max(self.peak, int(f.read().split()[1]) * self._page)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


def nproc() -> int:
    """The CPU count ``nproc`` prints: the affinity mask, overridden by
    OMP_NUM_THREADS and capped by OMP_THREAD_LIMIT as GNU nproc does."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def ray_temp_dir() -> str | None:
    """Ray's session root inside the work dir, or None (Ray's default) when
    that path is too long for the unix sockets Ray puts under it: a socket
    path holds at most 107 bytes, and Ray adds about 65 to the root."""
    path = os.path.join(WORK, "ray")
    return path if len(path) <= 42 else None


def become_subreaper() -> None:
    """Make this process the parent of every orphan among its descendants
    (prctl PR_SET_CHILD_SUBREAPER), so that Ray's workers, whose raylet
    exits first, are reparented here and can be waited for."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # 36 = PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def descendants() -> list[int]:
    """Pids of every process below this one, zombies included, from /proc."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # exited while we looked
            children.setdefault(ppid, []).append(int(name))
    out, todo = [], [os.getpid()]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def stop_descendants(grace_s: float = 10.0) -> None:
    """Wait until every process this one started, directly or through Ray,
    has ended and been reaped; after ``grace_s`` kill those still running."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        while True:  # reap every child that has ended
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pid = 0
            if pid == 0:
                break
        pids = descendants()
        if not pids:
            return
        if not killed and time.monotonic() >= deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError as e:
                    if e.errno != errno.ESRCH:
                        raise
            killed = True
        time.sleep(0.05)


def du_mb(path: str) -> float:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files) / 1e6


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        from spider_ray.config import CrawlConfig, CrawlJob
        from spider_ray.fixtures import build_corpus, corpus_as_dict, seed_of, write_corpus_parquet
        from spider_ray.oracle import crawl_oracle

        import checks

        self.name = workload
        self.spec = WORKLOADS[workload]
        self.nproc = nproc()
        n_hosts = self.spec["corpus"]["n_hosts"]
        # inputs and the reference answer, outside every timed span
        self.rows = build_corpus(seed=seed, **self.spec["corpus"])
        self.corpus = write_corpus_parquet(self.rows, os.path.join(WORK, "corpus"))
        self.job = CrawlJob(tuple(seed_of(k) for k in range(n_hosts)),
                            CrawlConfig(**self.spec["config"]))
        self.seed_hosts = {f"www.site{k}.example" for k in range(n_hosts)}
        self.expected = crawl_oracle(self.job, corpus_as_dict(self.rows)).visited
        self.golden = checks.html_pages(self.rows)
        self.html_bytes = {r["url"]: len(r["html"]) for r in self.rows}

        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        self.timeline: list[dict] = []
        self.rss = RssPeak()
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        self.setups: list[float] = []
        self.stops: list[float] = []  # ray.shutdown until its last process is reaped
        self.units: list[dict] = []  # one per measured crawl (or crawl pair)
        self.transforms: list[dict] = []
        self._pending: dict = {}

    # -- sessions -------------------------------------------------------------

    def session(self, steps: list[str]) -> None:
        import ray
        import ray.data

        self.rss.active.set()
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=self.nproc, include_dashboard=False,
                 log_to_driver=False, object_store_memory=512 * 2**20,
                 _temp_dir=ray_temp_dir())
        try:
            ray.data.read_parquet(self.corpus, columns=["url"]).materialize()
            self.setups.append(time.perf_counter() - t0)
            self.rss.active.clear()
            for step in steps:
                if step != "transform":
                    getattr(self, "step_" + step)()
            if self.tracer:
                from tracing import read_timeline

                self.timeline.extend(read_timeline())
            if "transform" in steps:
                self.step_transform()  # always the last step of its session
        finally:
            self.rss.active.clear()
            t_stop = time.perf_counter()
            ray.shutdown()
            stop_descendants()  # nothing of this session runs into the next
            self.stops.append(time.perf_counter() - t_stop)

    def _crawl(self, **kwargs):
        """One timed crawl: ``RayCrawler`` construction to the returned result."""
        from spider_ray.pipelines.crawl import RayCrawler

        resume = kwargs.pop("resume", False)
        self.attempted += 1
        self.rss.active.set()
        t0, w0 = time.perf_counter(), time.time() * 1e6
        result = RayCrawler(self.job, self.corpus, keep_pages=self.spec["keep_pages"],
                            **kwargs).run(resume=resume)
        t1, w1 = time.perf_counter(), time.time() * 1e6
        self.rss.active.clear()
        return result, (t0, t1, w0, w1)

    def step_crawl(self) -> None:
        import checks

        result, window = self._crawl()
        self.errors += checks.check_visited(result.visited, self.expected, self.seed_hosts,
                                            self.name)
        if self.spec["keep_pages"]:
            self.errors += checks.check_text(result.pages_table(), result.visited, self.golden)
            self.errors += checks.check_robots(result.visited, self.rows, self.seed_hosts)
        self._unit([window], [result])
        self.last_visited = result.visited

    def step_stop(self) -> None:
        from spider_ray.state.control import CrawlControl

        self.out_dir = os.path.join(WORK, "out")
        self.ckpt_dir = os.path.join(WORK, "ckpt")
        for d in (self.out_dir, self.ckpt_dir):
            shutil.rmtree(d, ignore_errors=True)
        control = CrawlControl()
        control.shutdown_at_wave(STOP_WAVE)
        result, window = self._crawl(out_dir=self.out_dir, ckpt_dir=self.ckpt_dir,
                                     control=control)
        if not result.stopped:
            self.errors.append("resume: the stopped crawl did not report stopped=True")
        self._pending = dict(result=result, window=window)

    def step_resume(self) -> None:
        import checks

        first, w_first = self._pending["result"], self._pending["window"]
        result, window = self._crawl(out_dir=self.out_dir, ckpt_dir=self.ckpt_dir, resume=True)
        visited = first.visited + result.visited
        self.errors += checks.check_visited(visited, self.expected, self.seed_hosts, self.name)
        self.errors += checks.check_out_dir(self.out_dir, visited)
        self._unit([w_first, window], [first, result],
                   extra={"resume_s": window[1] - window[0], "ckpt_mb": du_mb(self.ckpt_dir)})

    def step_transform(self) -> None:
        """The markdown conversion of the last crawl's visited pages, run as
        a second driver with a deadline; the last step of its session."""
        import ray

        import checks

        self.attempted += 1
        visited_json = os.path.join(WORK, "visited.json")
        out_json = os.path.join(WORK, "markdown.json")
        with open(visited_json, "w") as f:
            json.dump(self.last_visited, f)
        if os.path.exists(out_json):
            os.remove(out_json)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "transform_child.py"),
             ray.get_runtime_context().gcs_address, self.corpus, visited_json, out_json],
            stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno())
        outcome = {"deadline_s": TRANSFORM_DEADLINE_S}
        try:
            proc.wait(timeout=TRANSFORM_DEADLINE_S)
        except subprocess.TimeoutExpired:
            outcome["error"] = "deadline passed"
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if proc.returncode == 0 and os.path.exists(out_json):
            with open(out_json) as f:
                out = json.load(f)
            self.errors += checks.check_markdown(out["urls_nonempty"], self.last_visited,
                                                 self.golden)
            md = [op for op in out["operators"] if "TransformStage" in op["operator"]]
            outcome.update(wall_s=out["wall_s"], rows=len(out["urls_nonempty"]),
                           **{"markdown.convert_s": sum(op["wall_s"] for op in md),
                              "markdown.pages": sum(op["rows"] for op in md)})
        else:
            self.failed += 1
            outcome.setdefault("error", f"exit code {proc.returncode}")
        self.transforms.append(outcome)

    # -- metrics --------------------------------------------------------------

    def _unit(self, windows, results, extra=None) -> None:
        visited = [u for r in results for u in r.visited]
        unit = {"pages": len(visited), "wall_s": sum(w[1] - w[0] for w in windows),
                "windows": windows, "wave_metrics": results[-1].metrics,
                "html_mb": sum(self.html_bytes.get(u, 0) for u in visited) / 1e6,
                **(extra or {})}
        self.units.append(unit)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setups),
            "pages_per_s": statistics.median(u["pages"] / u["wall_s"] for u in self.units),
            "driver_peak_rss_mb": self.rss.peak / 1e6,
        }

    def per_layer(self) -> dict[str, float]:
        from tracing import kernel_rates

        rows = []
        for u in self.units:
            wm = u["wave_metrics"]
            m = self.tracer.unit_metrics(
                u["windows"], self.timeline, wm,
                n_fetched=sum(int(w.get("fetched", 0)) for w in wm),
                html_mb=u["html_mb"], n_seeds=len(self.job.seeds))
            m["ckpt.mb"] = u.get("ckpt_mb", 0.0)
            u["layers"] = m
            rows.append(m)
        out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        out.update(kernel_rates(self.job, self.rows, self.expected))
        return out

    def _missing_layers(self) -> list[str]:
        if not self.tracer:
            return []
        missing = list(self.tracer.missing_layers)
        if self.transforms and not any("markdown.pages" in t for t in self.transforms):
            missing.append("markdown")  # the transform never finished
        return missing

    def report(self) -> dict:
        """Everything beside the result line, for stderr."""
        digest = hashlib.sha256()
        for r in self.rows:
            digest.update(r["url"].encode() + b"\0" + r["html"] + b"\0" + r["text"].encode())
        import ray

        return {
            "workload": self.name,
            "corpus": {"rows": len(self.rows), "sha256": digest.hexdigest()[:16],
                       "params": self.spec["corpus"]},
            "machine": {"nproc": self.nproc, "affinity_cpus": len(os.sched_getaffinity(0)),
                        "mem_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
                        "ray": ray.__version__, "python": platform.python_version(),
                        "ray_temp_dir": ray_temp_dir() or "ray default"},
            "setups_s": self.setups,
            "stops_s": self.stops,
            "units": [{k: v for k, v in u.items() if k not in ("windows", "wave_metrics")}
                      for u in self.units],
            "transforms": self.transforms,
            "missing_layers": self._missing_layers(),
            "missing_targets": self.tracer.missing_targets if self.tracer else [],
            "errors": self.errors,
        }


def _on_alarm(signum, frame):
    raise TimeoutError(f"run passed its {RUN_DEADLINE_S} s deadline")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through every finally


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # the result is the only thing on stdout: everything this process or its
    # children print (Ray's raylet warnings among them) goes to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    sys.path.insert(0, ROOT)
    # the run and every process it starts (Ray's among them) use nproc CPUs
    # of the affinity mask, the CPUs its Ray session is given
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:nproc()])
    become_subreaper()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(RUN_DEADLINE_S)

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    bench = None
    try:
        import ray.data  # noqa: F401  (imported once, outside the timed set-up)

        bench = Bench(args.workload, args.seed, bool(args.trace))
        spec = bench.spec
        t_start = time.perf_counter()
        while True:
            for steps in spec["rounds"]:
                bench.session(steps)
            if time.perf_counter() - t_start >= args.seconds:
                break
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        result = {
            "correct": not bench.errors,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }
        report = bench.report()
        if args.trace:
            report["traced_pages_per_s"] = bench.end_to_end()["pages_per_s"]
    finally:
        signal.alarm(0)
        stop_descendants()
        if bench is not None:
            bench.rss.close()
        shutil.rmtree(WORK, ignore_errors=True)
    print("perfbench report: " + json.dumps(report), file=sys.stderr, flush=True)
    sys.stdout.flush()
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
