"""Seen/admission state sized to the session: ``min(8, cluster CPUs)``
shards, in the driver at one shard.

* in-driver parity: ``num_seen_shards=1`` forced in the 4-CPU test session
  must reproduce the oracle on every executor (the ordered ``run()`` fold,
  the sharded executor with and without kept/written pages, stop + resume);
* a checkpoint resumes with its own shard count whatever the session size;
* a 1-CPU session (own Ray cluster in a subprocess) starts no seen or
  admission actor, and the markdown transform and the link-graph ops
  finish there.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

from spider_ray.config import CrawlConfig, CrawlJob
from spider_ray.fixtures import build_corpus, corpus_as_dict, seed_of, write_corpus_parquet
from spider_ray.oracle import crawl_oracle
from spider_ray.state.control import CrawlControl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def env(ray_session):
    rows = build_corpus(n_hosts=4, pages_per_host=40)
    cdir = tempfile.mkdtemp(prefix="spider_corpus_sizing_")
    write_corpus_parquet(rows, cdir, n_buckets=8)
    return corpus_as_dict(rows), cdir


def _crawler(job, cdir, **kw):
    from spider_ray.pipelines.crawl import RayCrawler

    return RayCrawler(job, cdir, **kw)


def test_session_resolves_four_shards(ray_session):
    from spider_ray.poolsize import cluster_cpus, seen_shards

    assert cluster_cpus(1) == 4
    assert seen_shards() == 4


# actor class names of the seen and admission shards (ray.remote wraps the
# plain state classes, so the actors carry those names)
SEEN_ACTOR_CLASSES = {"SeenShard", "AdmissionState"}


def _seen_actors_started() -> int:
    """Seen/admission actors in the GCS actor table, dead ones included."""
    from ray._private.state import actors

    return sum(a["ActorClassName"] in SEEN_ACTOR_CLASSES for a in actors().values())


@pytest.mark.parametrize("keep_pages", [False, True])
def test_four_cpu_session_starts_four_actors(env, keep_pages):
    """Sharded executor (AdmissionState) and general run() (SeenShard)."""
    corpus, cdir = env
    job = CrawlJob((seed_of(0),), CrawlConfig(normalize=True))
    before = _seen_actors_started()
    res = _crawler(job, cdir, keep_pages=keep_pages).run()
    assert res.seen_shards == 4
    assert _seen_actors_started() - before == 4
    assert res.admitted_order == crawl_oracle(job, corpus).admitted_order


def test_in_driver_general_run_matches_oracle(env):
    """run() with kept pages, robots.txt and a per-host delay (the ordered
    driver fold) on the in-driver seen set."""
    corpus, cdir = env
    job = CrawlJob(
        (seed_of(0), seed_of(1)),
        CrawlConfig(normalize=True, respect_robots_txt=True, delay_ms=200),
    )
    golden = crawl_oracle(job, corpus)
    crawler = _crawler(job, cdir, num_seen_shards=1, collect_seen=True)
    before = _seen_actors_started()
    res = crawler.run()
    assert _seen_actors_started() == before
    assert res.seen_shards == 1
    assert res.admitted_order == golden.admitted_order
    assert res.seen_keys == golden.visited_set
    assert res.pages_table().num_rows == len(golden.visited)


@pytest.mark.parametrize(
    "cfg,pages",
    [
        (CrawlConfig(), False),
        (CrawlConfig(normalize=True, ignore_sitemap=False), False),
        (CrawlConfig(normalize=True, ignore_sitemap=False), True),
    ],
    ids=["cfg0", "cfg1", "cfg2"],
)
def test_in_driver_sharded_executor_matches_oracle(env, cfg, pages, tmp_path):
    """The sharded executor (every simple config) with the admission fold
    run in the driver on fetched flatten parts; with ``pages`` it also
    keeps the pages and writes them to ``out_dir``."""
    import glob

    import pyarrow.parquet as pq

    corpus, cdir = env
    job = CrawlJob(tuple(seed_of(k) for k in range(4)), cfg)
    golden = crawl_oracle(job, corpus)
    out_dir = str(tmp_path / "out") if pages else None
    crawler = _crawler(
        job, cdir, num_seen_shards=1, keep_pages=pages, out_dir=out_dir, collect_seen=True
    )
    assert crawler._simple_config()
    res = crawler.run()
    assert res.seen_shards == 1
    assert res.admitted_order == golden.admitted_order
    assert res.seen_keys == golden.visited_set
    if pages:
        want = {p["url"]: p["text"] for p in golden.pages}
        kept = res.pages_table()
        assert dict(zip(kept.column("url").to_pylist(), kept.column("text").to_pylist())) == want
        written = {}
        for f in glob.glob(os.path.join(out_dir, "wave_*", "*.parquet")):
            t = pq.read_table(f, columns=["url", "text"])
            for u, x in zip(t.column("url").to_pylist(), t.column("text").to_pylist()):
                assert u not in written, u
                written[u] = x
        assert written == want


def _stop_at_wave_1(job, cdir, ckpt, **kw):
    ctl = CrawlControl()
    ctl.shutdown_at_wave(1)
    stopped = _crawler(job, cdir, ckpt_dir=ckpt, keep_pages=False, control=ctl, **kw).run()
    assert stopped.stopped
    return stopped


@pytest.mark.parametrize("cfg", [CrawlConfig(normalize=True), CrawlConfig().with_limit(60)])
def test_in_driver_stop_and_resume_matches_oracle(env, cfg):
    corpus, cdir = env
    job = CrawlJob((seed_of(0), seed_of(2)), cfg)
    golden = crawl_oracle(job, corpus)
    ckpt = tempfile.mkdtemp(prefix="spider_ckpt_sizing_")
    stopped = _stop_at_wave_1(job, cdir, ckpt, num_seen_shards=1)
    with open(os.path.join(ckpt, "manifest.json")) as f:
        assert json.load(f)["num_seen_shards"] == 1
    assert os.path.exists(os.path.join(ckpt, "wave_00000", "seen", "shard_000.parquet"))
    resumed = _crawler(
        job, cdir, ckpt_dir=ckpt, keep_pages=False, collect_seen=True, num_seen_shards=1
    ).run(resume=True)
    assert resumed.seen_shards == 1
    assert stopped.admitted_order + resumed.admitted_order == golden.admitted_order
    assert resumed.seen_keys == golden.visited_set


def test_checkpoint_shard_count_wins_on_resume(env):
    """A 1-shard checkpoint (as a 1-CPU session writes) resumes in this
    4-CPU session with 1 shard; an explicit count that disagrees raises."""
    corpus, cdir = env
    job = CrawlJob((seed_of(1), seed_of(3)), CrawlConfig(normalize=True))
    golden = crawl_oracle(job, corpus)
    ckpt = tempfile.mkdtemp(prefix="spider_ckpt_cross_")
    stopped = _stop_at_wave_1(job, cdir, ckpt, num_seen_shards=1)

    with pytest.raises(ValueError, match="checkpoint config mismatch"):
        _crawler(job, cdir, ckpt_dir=ckpt, keep_pages=False, num_seen_shards=4).run(resume=True)

    resumed = _crawler(job, cdir, ckpt_dir=ckpt, keep_pages=False, collect_seen=True).run(
        resume=True
    )
    assert resumed.seen_shards == 1
    assert stopped.admitted_order + resumed.admitted_order == golden.admitted_order
    assert resumed.seen_keys == golden.visited_set


def test_pooled_checkpoint_resumes_pooled(env):
    """The converse: a checkpoint of the 4-actor pool resumes with 4."""
    corpus, cdir = env
    job = CrawlJob((seed_of(0),), CrawlConfig(normalize=True))
    golden = crawl_oracle(job, corpus)
    ckpt = tempfile.mkdtemp(prefix="spider_ckpt_pooled_")
    stopped = _stop_at_wave_1(job, cdir, ckpt)
    assert stopped.seen_shards == 4
    assert len(os.listdir(os.path.join(ckpt, "wave_00000", "seen"))) == 4
    resumed = _crawler(job, cdir, ckpt_dir=ckpt, keep_pages=False).run(resume=True)
    assert resumed.seen_shards == 4
    assert stopped.admitted_order + resumed.admitted_order == golden.admitted_order


_ONE_CPU_SCRIPT = """
import json, sys, tempfile
sys.path.insert(0, {root!r})
import ray
from ray._private.state import actors

from spider_ray.config import CrawlConfig, CrawlJob
from spider_ray.fixtures import build_corpus, seed_of, write_corpus_parquet
from spider_ray.markdown import transform_corpus, transform_html
from spider_ray.ops.linkgraph import host_link_edges, top_backlinks
from spider_ray.pipelines.crawl import RayCrawler

ray.init(address="local", num_cpus=1, include_dashboard=False, log_to_driver=False)
rows = build_corpus(n_hosts=2, pages_per_host=20)
cdir = tempfile.mkdtemp(prefix="spider_corpus_1cpu_")
write_corpus_parquet(rows, cdir, n_buckets=4)
seeds = (seed_of(0), seed_of(1))
fast = RayCrawler(CrawlJob(seeds, CrawlConfig(normalize=True)), cdir, keep_pages=False).run()
polite = RayCrawler(
    CrawlJob(seeds, CrawlConfig(normalize=True, respect_robots_txt=True, delay_ms=100)), cdir
).run()
classes = sorted({{a["ActorClassName"] for a in actors().values()}})
got = {{r["url"]: r["content"]
        for r in transform_corpus(cdir, "markdown", urls=set(polite.visited)).take_all()}}
want = {{r["url"]: transform_html(r["html"], "markdown") for r in rows
         if r["url"] in set(polite.visited) and r["status"] == 200
         and not r["url"].endswith(("robots.txt", "sitemap.xml"))}}
edges = host_link_edges(cdir, use_cache=False).count()
backlinks = top_backlinks(cdir, k=5).num_rows
print(json.dumps({{"shards": [fast.seen_shards, polite.seen_shards], "actor_classes": classes,
                  "visited": [len(fast.visited), len(polite.visited)],
                  "transform_equal": got == want, "transformed": len(got),
                  "edges": edges, "backlinks": backlinks}}))
ray.shutdown()
"""


def test_one_cpu_session_starts_no_seen_actor_and_transforms():
    """Its own 1-CPU Ray cluster: both executors keep the seen state in the
    driver (no seen/admission actor in the GCS actor table), and
    transform_corpus, host_link_edges and top_backlinks (which used to wait
    forever for CPUs their actor pools held) finish, the transform with the
    sequential converter's output."""
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_SCRIPT.format(root=ROOT)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, RAY_DATA_DISABLE_PROGRESS_BARS="1"),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["shards"] == [1, 1]
    assert not SEEN_ACTOR_CLASSES & set(out["actor_classes"])
    assert min(out["visited"]) > 2
    assert out["transformed"] > 0 and out["transform_equal"]
    assert out["edges"] > 0 and out["backlinks"] == 5
