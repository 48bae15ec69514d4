"""Spill-tier seen set (state/spillseen.py): exact membership through the
memory → sorted-digest-run transition, and full crawl parity with a tiny
spill threshold forced (every shard spills repeatedly mid-crawl)."""

import tempfile

import pytest

from spider_ray.config import CrawlConfig, CrawlJob
from spider_ray.fixtures import build_corpus, corpus_as_dict, seed_of, write_corpus_parquet
from spider_ray.oracle import crawl_oracle
from spider_ray.state.spillseen import SpillableSeenSet


def test_membership_parity_across_spill():
    """Insert a key stream with duplicates; at every step the spillable set
    must agree with a plain Python set on membership AND on add() newness."""
    import random

    rng = random.Random(7)
    keys = [f"https://h{rng.randrange(40)}.example/p{rng.randrange(300)}" for _ in range(3000)]
    spill = SpillableSeenSet(spill_threshold=64)
    plain: set[str] = set()
    for k in keys:
        assert (k in spill) == (k in plain)
        added = spill.add(k)
        assert added == (k not in plain)
        plain.add(k)
    assert len(spill) == len(plain)
    # fully spilled: hot tier stays bounded, runs were merged at MAX_RUNS
    assert spill.spilled
    assert spill.hot_size() < 64
    assert len(spill.runs) <= SpillableSeenSet.MAX_RUNS
    # negative probes never false-positive
    for i in range(500):
        probe = f"https://nope{i}.example/x"
        assert probe not in spill
    # every inserted key still present after all flushes/merges
    for k in plain:
        assert k in spill


def test_no_spill_mode_dumps_strings():
    s = SpillableSeenSet()  # threshold None — plain set semantics
    s.add("https://a.example/")
    s.add("https://b.example/")
    assert not s.spilled
    assert sorted(s.dump()) == ["https://a.example/", "https://b.example/"]


def test_spilled_dump_raises():
    s = SpillableSeenSet(spill_threshold=4)
    for i in range(10):
        s.add(f"k{i}")
    assert s.spilled
    with pytest.raises(RuntimeError):
        s.dump()


@pytest.fixture(scope="module")
def fixture_env(ray_session):
    rows = build_corpus()
    corpus = corpus_as_dict(rows)
    cdir = tempfile.mkdtemp(prefix="spider_corpus_")
    write_corpus_parquet(rows, cdir)
    return corpus, cdir


@pytest.mark.parametrize("config,seeds", [
    (CrawlConfig(), [0]),
    (CrawlConfig(normalize=True, respect_robots_txt=True), [0, 1]),
])
def test_crawl_parity_with_spill(fixture_env, config, seeds):
    """Forcing a 32-key spill threshold (each shard spills many times during
    the crawl) must not change the visited set or admitted order."""
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = fixture_env
    job = CrawlJob(tuple(seed_of(k) for k in seeds), config)
    o = crawl_oracle(job, corpus)
    crawler = RayCrawler(job, cdir, keep_pages=False, seen_spill_threshold=32)
    e = crawler.run()
    assert e.seen_shards == 4  # spilling actor shards, not the in-driver set
    assert e.visited_set == o.visited_set
    assert e.admitted_order == o.admitted_order
    assert not e.seen_keys  # collect_seen forced off in spill mode
