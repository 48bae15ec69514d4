"""Sharded-admission and pooled-index parity: the scale paths must produce
exactly the driver-fold results, and the pooled index must keep the driver
free of the corpus-wide url dict."""

from __future__ import annotations

import pytest

from spider_ray.config import CrawlConfig, CrawlJob
from spider_ray.fixtures import build_corpus, corpus_as_dict, seed_of, write_corpus_parquet
from spider_ray.oracle import crawl_oracle
from spider_ray.pipelines.crawl import RayCrawler


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    rows = build_corpus(n_hosts=4, pages_per_host=40)
    cdir = str(tmp_path_factory.mktemp("corpus_pool"))
    write_corpus_parquet(rows, cdir, n_buckets=8)
    return corpus_as_dict(rows), cdir


@pytest.mark.parametrize("cfg", [CrawlConfig(), CrawlConfig(normalize=True)])
def test_pooled_index_matches_driver_index(corpus, cfg, ray_session):
    corpus_dict, cdir = corpus
    job = CrawlJob((seed_of(0), seed_of(1)), cfg)
    golden = crawl_oracle(job, corpus_dict)

    pooled = RayCrawler(job, cdir, keep_pages=False, index_mode="pooled", collect_seen=True)
    res_pool = pooled.run()
    driver = RayCrawler(job, cdir, keep_pages=False, index_mode="driver", collect_seen=True)
    res_drv = driver.run()

    # the 4-CPU session resolves to 4 shards: the pooled (actor) path
    assert res_pool.seen_shards == res_drv.seen_shards == 4
    assert res_pool.admitted_order == golden.admitted_order
    assert res_drv.admitted_order == golden.admitted_order
    assert res_pool.seen_keys == res_drv.seen_keys == golden.visited_set


def test_pooled_mode_keeps_driver_free_of_corpus_dict(corpus, ray_session):
    corpus_dict, cdir = corpus
    for cfg in (CrawlConfig(), CrawlConfig(ignore_sitemap=False)):
        job = CrawlJob((seed_of(0),), cfg)
        crawler = RayCrawler(job, cdir, keep_pages=False, index_mode="pooled")
        res = crawler.run()
        # the driver-held CorpusIndex (url -> row-group dict over the WHOLE
        # corpus) must never have been built on the pooled path — the
        # sitemap chain's page reads included
        assert crawler._index is None, cfg
        assert res.admitted_order == crawl_oracle(job, corpus_dict).admitted_order, cfg


def test_pooled_index_handles_redirects(corpus, ray_session):
    """site0's redirect stressors resolve identically under the pooled
    index's batched-existence path."""
    corpus_dict, cdir = corpus
    job = CrawlJob((seed_of(0),), CrawlConfig())
    golden = crawl_oracle(job, corpus_dict)
    res = RayCrawler(job, cdir, keep_pages=False, index_mode="pooled").run()
    assert res.seen_shards == 4
    assert res.admitted_order == golden.admitted_order
