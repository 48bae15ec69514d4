"""Checkpoint/resume: kill the crawl after wave k (or between its page
write and its checkpoint), resume from checkpoint, and verify the combined
outputs equal an uninterrupted run (BASELINE.md resumability gate).  Covers
BOTH wave executors: the sharded executor (simple configs) and the ordered
driver fold (budget/politeness configs)."""

import glob
import os
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from spider_ray.config import CrawlConfig, CrawlJob
from spider_ray.fixtures import build_corpus, corpus_as_dict, seed_of, write_corpus_parquet


@pytest.fixture(scope="module")
def env(ray_session):
    rows = build_corpus()
    cdir = tempfile.mkdtemp(prefix="spider_corpus_")
    write_corpus_parquet(rows, cdir, n_buckets=8)
    return corpus_as_dict(rows), cdir


class _KillAfterWave(Exception):
    pass


def _pages_urls(out_dir):
    urls = {}
    for f in glob.glob(os.path.join(out_dir, "wave_*", "*.parquet")):
        t = pq.read_table(f, columns=["url", "text", "wave"])
        for u, x, w in zip(
            t.column("url").to_pylist(), t.column("text").to_pylist(), t.column("wave").to_pylist()
        ):
            urls[u] = (x, w)
    return urls


def _run_kill_resume(env, config, kill_wave=1, before_ckpt=False, seeds=(seed_of(0),),
                     edit_ckpt=None):
    """Crash the crawl at wave ``kill_wave``'s checkpoint — after it is
    written, or with ``before_ckpt`` at its entry (the wave's pages are
    written, its checkpoint is not) — then resume in a fresh crawler
    (after ``edit_ckpt(ckpt_dir)`` when given)."""
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = env
    job = CrawlJob(seeds, config)

    full_out = tempfile.mkdtemp(prefix="spider_full_out_")
    full = RayCrawler(job, cdir, out_dir=full_out, collect_seen=True).run()

    out = tempfile.mkdtemp(prefix="spider_kill_out_")
    ckpt = tempfile.mkdtemp(prefix="spider_ckpt_")
    crawler = RayCrawler(job, cdir, out_dir=out, ckpt_dir=ckpt)
    orig = crawler._ckpt_wave

    def bomb(wave, *a, **kw):
        if not before_ckpt:
            orig(wave, *a, **kw)
        if wave >= kill_wave:
            raise _KillAfterWave()
        if before_ckpt:
            orig(wave, *a, **kw)

    crawler._ckpt_wave = bomb
    with pytest.raises(_KillAfterWave):
        crawler.run()
    if edit_ckpt is not None:
        edit_ckpt(ckpt)

    resumed = RayCrawler(job, cdir, out_dir=out, ckpt_dir=ckpt, collect_seen=True).run(resume=True)
    return full, full_out, resumed, out, ckpt, job


def test_kill_and_resume_fast_path(env):
    """normalize-only config → sharded wave executor with ckpt."""
    full, full_out, resumed, out, ckpt, job = _run_kill_resume(env, CrawlConfig(normalize=True))
    assert resumed.seen_keys == full.seen_keys
    assert _pages_urls(full_out) == _pages_urls(out)
    full_tail = [(w, s, u) for (w, s, u) in full.admitted_order if w >= 2]
    assert resumed.admitted_order == full_tail


def test_kill_and_resume_slow_path(env):
    """budget config → ordered-fold executor with ckpt."""
    full, full_out, resumed, out, ckpt, job = _run_kill_resume(
        env, CrawlConfig(budget=(("sec0", 5),)).with_limit(60)
    )
    assert resumed.seen_keys == full.seen_keys
    assert _pages_urls(full_out) == _pages_urls(out)


def _move_seen_keys_to_shard_0(ckpt):
    """Rewrite every wave's seen files so all its keys sit in
    ``shard_000.parquet`` (the others empty): a layout that does not follow
    the routing rule, as checkpoints written under another rule are."""
    spread = 0
    for wdir in glob.glob(os.path.join(ckpt, "wave_*")):
        files = sorted(glob.glob(os.path.join(wdir, "seen", "shard_*.parquet")))
        assert len(files) == 4
        tables = [pq.read_table(f) for f in files]
        spread += sum(t.num_rows > 0 for t in tables[1:])
        pq.write_table(pa.concat_tables(tables, promote_options="default"), files[0])
        for f, t in zip(files[1:], tables[1:]):
            pq.write_table(t.slice(0, 0), f)
    assert spread, "every key already sat in shard 0"


@pytest.mark.parametrize(
    "config", [CrawlConfig(normalize=True), CrawlConfig(budget=(("sec0", 5),))],
    ids=["sharded", "ordered"],
)
def test_resume_reroutes_seen_keys(env, config):
    """Resume routes each checkpointed seen key to its host's shard
    whatever file holds it, so a 4-shard checkpoint with all keys in
    ``shard_000.parquet`` resumes exactly."""
    from spider_ray.oracle import crawl_oracle

    full, full_out, resumed, out, ckpt, job = _run_kill_resume(
        env, config, seeds=tuple(seed_of(i) for i in range(4)),
        edit_ckpt=_move_seen_keys_to_shard_0,
    )
    assert full.seen_shards == resumed.seen_shards == 4
    assert resumed.admitted_order == [t for t in full.admitted_order if t[0] >= 2]
    assert resumed.seen_keys == crawl_oracle(job, env[0]).visited_set


def test_rerun_wave_overwrites_its_pages(env):
    """A crash between wave 1's page write and its checkpoint re-runs wave
    1 on resume; the re-run replaces that wave's pages in ``out_dir``
    instead of adding a second copy of each."""
    full, full_out, resumed, out, ckpt, job = _run_kill_resume(
        env, CrawlConfig(normalize=True), before_ckpt=True
    )
    written = [
        u
        for f in glob.glob(os.path.join(out, "wave_*", "*.parquet"))
        for u in pq.read_table(f, columns=["url"]).column("url").to_pylist()
    ]
    assert sorted(written) == sorted(full.visited)
    assert resumed.seen_keys == full.seen_keys


def test_double_resume_preserves_lineage(env):
    """Resuming must not rewrite the restored wave's seen increments — a
    second resume still reconstructs the full seen set."""
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = env
    full, full_out, resumed, out, ckpt, job = _run_kill_resume(env, CrawlConfig(normalize=True))
    again = RayCrawler(job, cdir, ckpt_dir=ckpt, keep_pages=False).run(resume=True)
    # checkpointed seen lineage (all waves) still unions to the full set
    seen_urls = set()
    for f in glob.glob(os.path.join(ckpt, "wave_*", "seen", "*.parquet")):
        seen_urls.update(pq.read_table(f).column("url_norm").to_pylist())
    assert seen_urls == full.seen_keys


def test_checkpoint_lineage_files(env):
    from spider_ray.oracle import crawl_oracle
    from spider_ray.pipelines.crawl import RayCrawler

    corpus, cdir = env
    job = CrawlJob((seed_of(0),), CrawlConfig(delay_ms=50))  # slow path
    ckpt = tempfile.mkdtemp(prefix="spider_ckpt2_")
    RayCrawler(job, cdir, ckpt_dir=ckpt, keep_pages=False).run()
    assert os.path.exists(os.path.join(ckpt, "manifest.json"))
    waves = sorted(glob.glob(os.path.join(ckpt, "wave_*")))
    assert waves
    for w in waves:
        assert os.path.exists(os.path.join(w, "frontier.parquet"))
        assert os.path.exists(os.path.join(w, "budget.json"))
        assert glob.glob(os.path.join(w, "seen", "shard_*.parquet"))
    seen_urls = set()
    for f in glob.glob(os.path.join(ckpt, "wave_*", "seen", "*.parquet")):
        seen_urls.update(pq.read_table(f).column("url_norm").to_pylist())
    assert seen_urls == crawl_oracle(job, corpus).visited_set

@pytest.mark.parametrize("trial", range(4))
def test_fuzz_kill_resume(env, trial):
    """Randomized configs through the kill-at-wave-k + resume gate (reuses
    the fuzz config generator; both executors get exercised depending on
    whether the drawn config is simple)."""
    import random
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from test_fuzz_parity import random_config

    rng = random.Random(4200 + trial)
    cfg = random_config(rng)
    # hooks/queue don't affect resume mechanics but sitemap chain does; keep
    # the drawn config as-is except force some output to exist
    full, full_out, resumed, out, ckpt, job = _run_kill_resume(
        env, cfg, kill_wave=rng.choice([0, 1, 2])
    )
    assert resumed.seen_keys == full.seen_keys, cfg
    assert _pages_urls(out) == _pages_urls(full_out), cfg
