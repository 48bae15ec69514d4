"""Engine-vs-oracle parity: the distributed Ray crawl must reproduce the
sequential oracle exactly — URL-seen set, per-wave admitted order, and
byte-identical extracted text per url (BASELINE.json correctness gates)."""

import tempfile

import pytest

from spider_ray.config import CrawlConfig, CrawlJob
from spider_ray.fixtures import build_corpus, corpus_as_dict, seed_of, write_corpus_parquet
from spider_ray.oracle import crawl_oracle


@pytest.fixture(scope="module")
def fixture_env(ray_session):
    rows = build_corpus()
    corpus = corpus_as_dict(rows)
    cdir = tempfile.mkdtemp(prefix="spider_corpus_")
    write_corpus_parquet(rows, cdir)
    return corpus, cdir


SCENARIOS = {
    "plain": (CrawlConfig(), [0]),
    "blacklist": (CrawlConfig(blacklist=("https://www.site0.example/sec1/",)), [0]),
    "budget": (CrawlConfig(budget=(("sec1", 3),)).with_limit(25), [0]),
    "depth2": (CrawlConfig(depth=2), [0]),
    "subdomains": (CrawlConfig(subdomains=True), [0]),
    "tld": (CrawlConfig(tld=True), [0]),
    "robots": (CrawlConfig(respect_robots_txt=True), [0]),
    "dedup": (CrawlConfig(normalize=True), [0]),
    "politeness": (CrawlConfig(delay_ms=100, round_robin=True), list(range(4))),
    "full_resources": (CrawlConfig(full_resources=True), [0]),
    "external": (CrawlConfig(external_domains=frozenset({"off-domain.example"})), [0]),
    "sitemap": (CrawlConfig(ignore_sitemap=False), [0]),
    "sitemap_budget": (CrawlConfig(ignore_sitemap=False).with_limit(30), [0]),
    "extra_links": (CrawlConfig(extra_links=("https://www.site0.example/orphan/sm0",)), [0]),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_parity(fixture_env, name):
    from spider_ray.pipelines.crawl import crawl

    corpus, cdir = fixture_env
    config, seed_ids = SCENARIOS[name]
    job = CrawlJob(tuple(seed_of(k) for k in seed_ids), config)
    o = crawl_oracle(job, corpus)
    e = crawl(job, cdir)

    assert e.visited_set == o.visited_set, name
    assert e.admitted_order == o.admitted_order, name
    assert e.seen_keys == o.visited_set, name

    # byte-identical text + matching metadata/status/signature per url
    tbl = e.pages_table()
    by_url = {
        u: (t, s, sig, ti)
        for u, t, s, sig, ti in zip(
            tbl.column("url").to_pylist(),
            tbl.column("text").to_pylist(),
            tbl.column("status_code").to_pylist(),
            tbl.column("signature").to_pylist(),
            tbl.column("title").to_pylist(),
        )
    }
    assert set(by_url) == {p["url"] for p in o.pages}, name
    for p in o.pages:
        text, status, sig, title = by_url[p["url"]]
        assert text == p["text"], (name, p["url"])
        assert status == p["status_code"], (name, p["url"])
        assert sig == p["signature"], (name, p["url"])
        assert title == p["title"], (name, p["url"])


@pytest.mark.parametrize("name", ["plain", "dedup", "subdomains"])
def test_parity_distributed_flatten_path(fixture_env, name):
    """keep_pages=False + no out_dir → the distributed candidate-flatten
    executor; visited set and admitted order must still match the oracle
    exactly (links/rank dedup semantics)."""
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = fixture_env
    config, seed_ids = SCENARIOS[name]
    job = CrawlJob(tuple(seed_of(k) for k in seed_ids), config)
    o = crawl_oracle(job, corpus)
    e = RayCrawler(job, cdir, keep_pages=False).run()
    assert e.visited_set == o.visited_set, name
    assert e.admitted_order == o.admitted_order, name


def test_crawl_builds_no_dataset(fixture_env, monkeypatch, tmp_path):
    """Both wave executors fetch+parse with raw Ray tasks: neither the
    ordered fold (robots + delay, kept pages) nor the sharded executor
    (simple config, written pages) builds a Ray Dataset."""
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data

    from spider_ray.pipelines.crawl import RayCrawler

    def refuse(*args, **kwargs):
        raise AssertionError("the crawl built a Ray Dataset")

    monkeypatch.setattr(ray.data, "from_items", refuse)
    monkeypatch.setattr(ray.data.Dataset, "map_batches", refuse)
    corpus, cdir = fixture_env

    polite = CrawlJob(
        (seed_of(0),), CrawlConfig(normalize=True, respect_robots_txt=True, delay_ms=100)
    )
    o = crawl_oracle(polite, corpus)
    e = RayCrawler(polite, cdir, keep_pages=True).run()
    assert e.admitted_order == o.admitted_order
    assert sorted(e.pages_table().column("url").to_pylist()) == sorted(p["url"] for p in o.pages)

    simple = CrawlJob((seed_of(0),), CrawlConfig(normalize=True))
    o = crawl_oracle(simple, corpus)
    out = str(tmp_path / "out")
    e = RayCrawler(simple, cdir, out_dir=out, keep_pages=False).run()
    assert e.admitted_order == o.admitted_order
    written = [
        u
        for f in glob.glob(os.path.join(out, "wave_*", "*.parquet"))
        for u in pq.read_table(f, columns=["url"]).column("url").to_pylist()
    ]
    assert sorted(written) == sorted(p["url"] for p in o.pages)


def test_concurrency_limit_is_semantic_noop(fixture_env):
    """concurrency_limit (configuration.rs:478 worker-permit cap) bounds
    stage parallelism but must not change the crawl result — both the
    sharded fast path (keep_pages=False) and the page-materializing path."""
    from spider_ray.pipelines.crawl import RayCrawler, crawl

    corpus, cdir = fixture_env
    base = CrawlConfig(normalize=True)
    job = CrawlJob((seed_of(0),), base)
    capped = CrawlJob((seed_of(0),), CrawlConfig(normalize=True, concurrency_limit=1))
    o = crawl_oracle(job, corpus)

    e_fast = RayCrawler(capped, cdir, keep_pages=False).run()
    assert e_fast.visited_set == o.visited_set
    assert e_fast.admitted_order == o.admitted_order

    e_pages = crawl(capped, cdir)
    assert e_pages.visited_set == o.visited_set
    assert e_pages.pages_table().num_rows == len(o.pages)


def test_parity_queue_injection(fixture_env):
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = fixture_env
    orphan = "https://www.site0.example/orphan/sm0"

    def provider(wave):
        return [orphan] if wave == 1 else []

    job = CrawlJob((seed_of(0),), CrawlConfig().with_limit(10))
    o = crawl_oracle(job, corpus, queue_provider=provider)
    e = RayCrawler(job, cdir, queue_provider=provider).run()
    assert e.visited_set == o.visited_set
    assert e.admitted_order == o.admitted_order


def test_crawl_timeout_stops_early(fixture_env):
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = fixture_env
    job = CrawlJob((seed_of(0),), CrawlConfig(crawl_timeout_s=0.0))
    e = RayCrawler(job, cdir).run()
    full = RayCrawler(CrawlJob((seed_of(0),), CrawlConfig()), cdir).run()
    # only the seed wave completed before the wall-clock cap
    assert len(e.visited) < len(full.visited)
    assert max(w for w, _, _ in e.admitted_order) == 0


def test_deferred_survive_zero_admission_wave(ray_session):
    """Regression (found by fuzz trial 9): a wave can admit NOTHING while
    still deferring — politeness quota slots consumed by candidates that then
    drop at the budget step.  The deferrals must re-enter the next admission
    (oracle breaks only when admitted AND deferred are empty); the engine
    used to break on empty candidates, ending with unburned wildcard budget
    and then wrongly admitting a sitemap orphan through the chain."""
    import tempfile

    from spider_ray.config import CrawlConfig, CrawlJob
    from spider_ray.fixtures import build_corpus, corpus_as_dict, seed_of, write_corpus_parquet
    from spider_ray.oracle import crawl_oracle
    from spider_ray.pipelines.crawl import crawl

    rows = build_corpus(n_hosts=6, pages_per_host=40, seed=777)
    cdir = tempfile.mkdtemp(prefix="spider_defer_")
    write_corpus_parquet(rows, cdir, n_buckets=8)
    corpus = corpus_as_dict(rows)
    cfg = CrawlConfig(
        subdomains=True,
        respect_robots_txt=True,
        delay_ms=250,
        depth=3,
        ignore_sitemap=False,
        budget=(("*", 52), ("sec1", 6)),
    )
    job = CrawlJob((seed_of(0),), cfg)
    o = crawl_oracle(job, corpus)
    e = crawl(job, cdir)
    assert e.visited_set == o.visited_set
    assert e.admitted_order == o.admitted_order
    # the orphan is refused by the exhausted wildcard budget in BOTH
    assert not any("orphan" in u for u in e.visited_set)
