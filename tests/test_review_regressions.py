"""Regression tests for the round-2 self-review findings: nondeterministic
checkpoint config hash, sitemap-after-shutdown checkpoint clobber, staged
sitemap seen-increments on the sharded path, seed-redirect state across
resume, strict-redirect host-suffix bypass, streaming-path unsupported
configs, IPv6 routing-host divergence, and ivf_top_k on tiny datasets."""

import glob
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pyarrow.parquet as pq
import pytest

from spider_ray.config import CrawlConfig, CrawlJob
from spider_ray.fixtures import (
    build_corpus,
    corpus_as_dict,
    redirseed_seed,
    seed_of,
    write_corpus_parquet,
)


@pytest.fixture(scope="module")
def env(ray_session):
    rows = build_corpus()
    cdir = tempfile.mkdtemp(prefix="spider_corpus_")
    write_corpus_parquet(rows, cdir, n_buckets=8)
    return corpus_as_dict(rows), cdir


# ---------------------------------------------------------------------------
# config hash must be stable across processes (frozenset repr is
# hash-randomized per process)
# ---------------------------------------------------------------------------


_HASH_SCRIPT = f"""
import sys
sys.path.insert(0, {os.path.dirname(os.path.dirname(os.path.abspath(__file__)))!r})
from spider_ray.config import CrawlConfig, CrawlJob
from spider_ray.pipelines.crawl import RayCrawler
cfg = CrawlConfig(external_domains=frozenset(
    f"h{{i}}.example" for i in range(12)))
job = CrawlJob(("https://site0.example/",), cfg)
c = RayCrawler.__new__(RayCrawler)
c.job = job
c.config = cfg
c.num_seen_shards = 4
c.queue_provider = None
print(c._config_hash())
"""


def test_config_hash_stable_across_hashseeds():
    hashes = set()
    for seed in ("0", "1", "424242"):
        env_vars = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT],
            capture_output=True,
            text=True,
            env=env_vars,
        )
        assert out.returncode == 0, out.stderr
        hashes.add(out.stdout.strip())
    assert len(hashes) == 1, hashes


# ---------------------------------------------------------------------------
# routing-host derivation: host_of_key / hosts_of_keys_arrow == url_host
# ---------------------------------------------------------------------------

HOST_CASES = [
    "https://site.example/a/b",
    "https://site.example:8080/a",
    "https://[2001:db8::1]/x",
    "https://[2001:db8::1]:443/x?q",
    "https://user@host.example/p",
    "https://user:pw@[::1]:80/p#f",
    "http://plain.example",
    "https://h.example?q#f",
    "https://h.example#only-frag",
]


def test_host_of_key_matches_url_host():
    import pyarrow as pa

    from spider_ray.hashing import stable_hash_str
    from spider_ray.urlnorm import host_of_key, hosts_of_keys_arrow, shard_of_hosts, url_host

    keys = [u.lower() for u in HOST_CASES]
    expected = [url_host(u) for u in HOST_CASES]
    assert [host_of_key(k) for k in keys] == expected
    hosts = hosts_of_keys_arrow(pa.array(keys))
    assert hosts.to_pylist() == expected
    # the one routing rule: the shard of a url is the hash of its host
    for n in (1, 3, 8):
        want = [stable_hash_str(url_host(u)) % n for u in HOST_CASES]
        assert shard_of_hosts(hosts, n).tolist() == want
        assert shard_of_hosts(expected, n).tolist() == want


def test_ipv6_candidate_routes_to_seed_shard(ray_session):
    """A key must hash to ONE shard: driver-side insert (url_host) and the
    candidate flatten (hosts_of_keys_arrow) must agree on IPv6 literals."""
    from spider_ray.hashing import stable_hash_str
    from spider_ray.urlnorm import host_of_key, url_host

    url = "https://[2001:db8::1]/page"
    n = 8
    assert (
        stable_hash_str(url_host(url)) % n
        == stable_hash_str(host_of_key(url.lower())) % n
    )


# ---------------------------------------------------------------------------
# strict redirect host gate: suffix match must be dot-bounded
# ---------------------------------------------------------------------------


def test_strict_match_requires_dot_boundary():
    from spider_ray.redirect import RedirectResolver

    r = RedirectResolver(CrawlConfig(redirect_policy="strict", subdomains=True))
    assert r._strict_match("sub.site0.example", "site0.example")
    assert r._strict_match("site0.example", "site0.example")
    assert not r._strict_match("evilsite0.example", "site0.example")


# ---------------------------------------------------------------------------
# shutdown skips the sitemap chain and the frontier survives resume
# ---------------------------------------------------------------------------


def test_shutdown_skips_sitemap_and_resume_completes(env):
    from spider_ray.pipelines.crawl import RayCrawler
    from spider_ray.state.control import CrawlControl

    corpus, cdir = env
    cfg = CrawlConfig(normalize=True, ignore_sitemap=False)
    job = CrawlJob((seed_of(0),), cfg)

    full = RayCrawler(job, cdir, collect_seen=True).run()

    ckpt = tempfile.mkdtemp(prefix="spider_ckpt_stop_")
    control = CrawlControl()
    control.shutdown_at_wave(0)
    stopped = RayCrawler(job, cdir, ckpt_dir=ckpt, control=control).run()
    assert stopped.stopped
    # the sitemap chain must NOT have run after the stop
    assert not any(m.get("sitemap") for m in stopped.metrics)
    # the manifest must still point at wave 0 with the live frontier
    with open(os.path.join(ckpt, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["wave"] == 0
    frontier = pq.read_table(os.path.join(ckpt, "wave_00000", "frontier.parquet"))
    assert frontier.num_rows > 0

    resumed = RayCrawler(job, cdir, ckpt_dir=ckpt, collect_seen=True).run(resume=True)
    assert stopped.visited + resumed.visited == full.visited
    assert resumed.seen_keys == full.seen_keys


# ---------------------------------------------------------------------------
# sharded path: sitemap seen-increments land in the checkpoint
# ---------------------------------------------------------------------------


def test_sharded_sitemap_increments_checkpointed(env):
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = env
    cfg = CrawlConfig(normalize=True, ignore_sitemap=False)
    job = CrawlJob((seed_of(0),), cfg)

    ckpt = tempfile.mkdtemp(prefix="spider_ckpt_sm_")
    crawler = RayCrawler(job, cdir, ckpt_dir=ckpt, keep_pages=False)
    assert crawler._simple_config()  # takes _run_fast_sharded
    first = crawler.run()
    assert first.seen_shards == 4  # the actor pool of the 4-CPU session
    sitemap_waves = [m for m in first.metrics if m.get("sitemap")]
    assert sitemap_waves and sitemap_waves[0]["admitted"] > 0

    # the sitemap admissions must be in the checkpointed seen lineage
    seen_urls = set()
    for f in glob.glob(os.path.join(ckpt, "wave_*", "seen", "*.parquet")):
        seen_urls.update(pq.read_table(f).column("url_norm").to_pylist())
    assert {u.lower() for u in first.visited} <= seen_urls

    # resume after a COMPLETED crawl must admit nothing (no re-fetch)
    resumed = RayCrawler(job, cdir, ckpt_dir=ckpt, keep_pages=False).run(resume=True)
    assert resumed.seen_shards == 4
    assert resumed.visited == []


# ---------------------------------------------------------------------------
# seed-redirect scope + strict allowance survive a resume
# ---------------------------------------------------------------------------


def test_seed_redirect_scope_survives_resume(env):
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = env
    cfg = CrawlConfig(normalize=True)
    job = CrawlJob((redirseed_seed(),), cfg)

    full = RayCrawler(job, cdir, collect_seen=True).run()
    # sanity: the scenario crawls pages on BOTH hosts
    assert any("redirtarget" in u for u in full.seen_keys)
    assert any("redirseed" in u and "back" in u for u in full.seen_keys)

    ckpt = tempfile.mkdtemp(prefix="spider_ckpt_redir_")
    crawler = RayCrawler(job, cdir, ckpt_dir=ckpt, keep_pages=False)
    orig = crawler._ckpt_wave

    class _Kill(Exception):
        pass

    def bomb(wave, *a, **kw):
        orig(wave, *a, **kw)
        if wave >= 0:
            raise _Kill()

    crawler._ckpt_wave = bomb
    with pytest.raises(_Kill):
        crawler.run()

    # the manifest must carry the detected seed redirect
    with open(os.path.join(ckpt, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest.get("seed_redirects"), manifest

    resumed = RayCrawler(job, cdir, ckpt_dir=ckpt, collect_seen=True).run(resume=True)
    combined = {u.lower() for u in resumed.seen_keys}
    assert combined == full.seen_keys


# ---------------------------------------------------------------------------
# streaming path rejects configs it would silently mishandle
# ---------------------------------------------------------------------------


def test_run_streaming_rejects_hooks_and_extra_links(env):
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = env
    for cfg in (
        CrawlConfig(on_link_find=str.lower),
        CrawlConfig(on_should_crawl=lambda row: True),
        CrawlConfig(extra_links=("https://site0.example/x",)),
    ):
        job = CrawlJob((seed_of(0),), cfg)
        with pytest.raises(AssertionError):
            RayCrawler(job, cdir).run_streaming()


# ---------------------------------------------------------------------------
# ivf_top_k on a dataset smaller than n_cells
# ---------------------------------------------------------------------------


def test_ivf_top_k_fewer_rows_than_cells(ray_session):
    import ray

    from spider_ray.ops.similarity import brute_force_top_k, ivf_top_k

    rng = np.random.default_rng(7)
    n, dim = 10, 8
    rows = [
        {"vec_id": i, "embedding": rng.normal(size=dim).tolist()} for i in range(n)
    ]
    ds = ray.data.from_items(rows)
    queries = rng.normal(size=(3, dim))
    out = ivf_top_k(ds, queries, k=4, n_cells=16, nprobe=16)
    exact = brute_force_top_k(ray.data.from_items(rows), queries, k=4)
    got = out.to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    want = exact.to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    # probing every cell == exact
    assert got.equals(want)


# ---------------------------------------------------------------------------
# link-graph kernels on a corpus with zero host links (round-2 advice:
# pa.concat_tables([]) raised instead of returning an empty result)
# ---------------------------------------------------------------------------


def test_linkless_corpus_graph_ops_empty(ray_session, tmp_path):
    import pyarrow as pa

    from spider_ray.ops.linkgraph import host_components, host_pagerank

    tbl = pa.table(
        {
            "url": ["https://www.lonely.example/"],
            "html": [b"<html><body><p>no links here</p></body></html>"],
            "status": pa.array([200], pa.int32()),
        }
    )
    cdir = tmp_path / "linkless"
    cdir.mkdir()
    pq.write_table(tbl, str(cdir / "part-0.parquet"))
    assert host_pagerank(str(cdir)).count() == 0
    assert host_components(str(cdir)).count() == 0
