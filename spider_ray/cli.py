"""CLI entry — the ``spider_cli`` analogue (CRAWL / SCRAPE / DOWNLOAD
subcommands, ``spider_cli/src/options/sub_command.rs:4-41``) over a Parquet
corpus.

Usage::

    python -m spider_ray.cli crawl  --corpus DIR --seeds URL [URL…] [--out DIR]
        [--ckpt DIR] [--resume] [--budget N] [--depth N] [--subdomains] [--tld]
        [--respect-robots] [--delay-ms N] [--normalize] [--sitemap]
    python -m spider_ray.cli scrape --corpus DIR --seeds URL --jsonl out.jsonl
    python -m spider_ray.cli download --corpus DIR --seeds URL --target-dir DIR
    python -m spider_ray.cli ops list
    python -m spider_ray.cli ops run <query> --sf-dir DIR
        [--out DIR [--partition-by COL]] [--limit N]

``crawl`` writes parsed pages + checkpoints; ``scrape`` additionally emits
JSONL (url, title, description, text) like the reference CLI's scrape
output; ``download`` stores each visited page's raw html under
``--target-dir`` keyed by URL path (``sinks/download.py``,
`spider_cli/src/main.rs:456-515` semantics).  Suitable for
``ray job submit -- python -m spider_ray.cli …``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def build_config(args) -> "CrawlConfig":
    from .config import CrawlConfig

    cfg = CrawlConfig(
        subdomains=args.subdomains,
        tld=args.tld,
        respect_robots_txt=args.respect_robots,
        delay_ms=args.delay_ms,
        depth=args.depth,
        normalize=args.normalize,
        ignore_sitemap=not args.sitemap,
        blacklist=tuple(args.blacklist or ()),
        whitelist=tuple(args.whitelist or ()),
        filter_mode=args.filter_mode,
        redirect_policy=args.redirect_policy,
        redirect_limit=args.redirect_limit,
        only_html=not args.allow_non_html,
        max_page_bytes=args.max_page_bytes,
        concurrency_limit=args.concurrency_limit,
    )
    if args.budget:
        cfg = cfg.with_limit(args.budget)
    return cfg


def _ops_main(args, started_ray: bool) -> int:
    """``ops list`` / ``ops run <query>``: every driver-contract pipeline is
    also a CLI entry point, so the whole operator catalog is reachable
    without writing Python.  Results print as JSONL or land as (optionally
    partitioned, resumable) Parquet."""
    import importlib.util
    import json as _json

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "_spider_entry", os.path.join(root, "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    queries = mod.queries()
    try:
        if args.action == "list":
            for name in sorted(queries):
                print(name)
            return 0
        if not args.query or args.query not in queries:
            print(f"unknown query {args.query!r}; see `ops list`", file=sys.stderr)
            return 2
        res = queries[args.query](args.sf_dir)

        import pyarrow as pa
        import ray.data as rd

        if isinstance(res, pa.Table):
            ds = rd.from_arrow(res)
        elif hasattr(res, "map_batches"):
            ds = res
        else:  # pandas
            ds = rd.from_pandas(res)

        if args.out:
            if args.partition_by:
                from .ops.io import write_partitioned

                manifest = write_partitioned(ds, args.out, by=args.partition_by).take_all()
                print(_json.dumps({"out": args.out, "partitions": len(manifest),
                                   "rows": sum(m["n_rows"] for m in manifest),
                                   "skipped": sum(m["skipped"] for m in manifest)}))
            else:
                ds.write_parquet(args.out)
                print(_json.dumps({"out": args.out, "rows": ds.count()}))
        else:
            for row in ds.take(args.limit):
                print(_json.dumps(row, default=str))
        return 0
    finally:
        import ray

        if started_ray:
            ray.shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spider_ray")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("crawl", "scrape", "download"):
        p = sub.add_parser(name)
        p.add_argument("--corpus", required=True)
        p.add_argument("--seeds", nargs="+", required=True)
        p.add_argument("--out")
        p.add_argument("--ckpt")
        p.add_argument("--resume", action="store_true")
        p.add_argument("--budget", type=int)
        p.add_argument("--depth", type=int, default=25)
        p.add_argument("--subdomains", action="store_true")
        p.add_argument("--tld", action="store_true")
        p.add_argument("--respect-robots", action="store_true")
        p.add_argument("--delay-ms", type=int, default=0)
        p.add_argument("--normalize", action="store_true")
        p.add_argument("--sitemap", action="store_true")
        p.add_argument("--blacklist", nargs="*")
        p.add_argument("--whitelist", nargs="*")
        p.add_argument("--filter-mode", choices=("exact", "regex"), default="exact")
        p.add_argument("--redirect-policy", choices=("loose", "strict", "none"), default="loose")
        p.add_argument("--redirect-limit", type=int, default=7)
        p.add_argument("--allow-non-html", action="store_true",
                       help="disable the only_html Content-Type gate")
        p.add_argument("--max-page-bytes", type=int, default=0,
                       help="truncate bodies over N bytes (0 = unlimited)")
        p.add_argument("--concurrency-limit", type=int, default=None,
                       help="worker-permit cap on concurrent fetch/parse tasks "
                            "(configuration.rs:478 concurrency_limit)")
        p.add_argument("--index-mode", choices=("auto", "driver", "pooled"), default="auto")
        p.add_argument("--stop-after-wave", type=int,
                       help="graceful shutdown once wave N completes (resumable)")
        p.add_argument("--jsonl")
        p.add_argument("--target-dir", default="./_temp_spider_downloads/",
                       help="download destination (spider_cli DOWNLOAD default)")
        p.add_argument("--cron",
                       help="6-field cron (sec min hour dom mon dow, e.g. '0/30 * "
                            "* * * *'): re-run the crawl on schedule, diffing "
                            "each cycle (website.rs with_cron/run_cron)")
        p.add_argument("--cron-cycles", type=int, default=2,
                       help="number of scheduled firings before exiting")
        p.add_argument("--cron-state", default="./_spider_cron_state",
                       help="signature-checkpoint dir for cycle diffs")
        p.add_argument("--return-format",
                       choices=("markdown", "commonmark", "raw", "text", "xml"),
                       default="markdown",
                       help="scrape content transform (spider_cli args.rs:123-125; "
                            "markdown is the reference default)")
        p.add_argument("--output-html", action="store_true",
                       help="scrape: emit raw HTML content (reference --output-html "
                            "overrides --return-format)")
        p.add_argument("-W", "--warc", metavar="DIR",
                       help="also store the crawl as a WARC 1.1 archive under "
                            "DIR (spider_cli args.rs:120-122 -W/--warc)")
        p.add_argument("--num-cpus", type=int)
    # ops: run any driver-contract pipeline over an sf-shaped table dir
    p = sub.add_parser("ops", help="list / run the training-data operators")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("query", nargs="?", help="query name from `ops list`")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.01",
                   help="directory holding documents/events/... parquet tables")
    p.add_argument("--out", help="write result parquet here instead of printing")
    p.add_argument("--partition-by", help="with --out: one directory per value "
                                          "of this column (atomic, resumable)")
    p.add_argument("--limit", type=int, default=10,
                   help="rows to print without --out")
    p.add_argument("--num-cpus", type=int)
    args = parser.parse_args(argv)

    import ray

    started_ray = False
    if not ray.is_initialized():
        kwargs = {"include_dashboard": False}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)
        started_ray = True

    if args.command == "ops":
        return _ops_main(args, started_ray)

    from .config import CrawlJob
    from .pipelines.crawl import RayCrawler
    from .urlnorm import glob_expand_url

    seeds = tuple(u for s in args.seeds for u in glob_expand_url(s))
    job = CrawlJob(seeds, build_config(args))

    if args.command == "crawl" and args.cron:
        if args.warc:
            # the warc block below runs after the single-crawl path only;
            # silently ignoring -W on a recurring crawl would let the
            # user believe cycles are being archived
            parser.error("--warc is not supported with --cron "
                         "(archive each cycle's corpus via a separate "
                         "crawl, or run scrape/crawl without --cron)")
        from dataclasses import replace as _replace

        from .pipelines.cron import CronRecrawler

        if not job.config.normalize:  # cycle diffs need content signatures
            job = CrawlJob(seeds, _replace(job.config, normalize=True))
        runner = CronRecrawler(job, args.corpus, args.cron, args.cron_state)
        for cyc in runner.run(max_cycles=args.cron_cycles):
            print(json.dumps({
                "cycle": cyc.cycle, "fired_at": cyc.fired_at,
                "visited": cyc.visited, "changed": cyc.changed,
                "unchanged": cyc.unchanged, "new": cyc.new, "gone": cyc.gone,
            }), file=sys.stderr)
        if started_ray:
            ray.shutdown()
        return 0

    # graceful stop: first SIGINT/SIGTERM requests a wave-barrier shutdown
    # (checkpoint stays resumable with --resume); a second signal kills hard
    import signal

    from .state.control import CrawlControl

    control = CrawlControl()
    prev_handlers = {}

    def _graceful(signum, frame):
        # non-blocking: the main thread is typically inside a ray.get here
        control.request_shutdown()
        print(
            json.dumps({"signal": signum, "action": "shutdown_at_wave_barrier"}),
            file=sys.stderr,
        )
        for s, h in prev_handlers.items():  # second signal → default behavior
            signal.signal(s, h)

    for s in (signal.SIGINT, signal.SIGTERM):
        prev_handlers[s] = signal.signal(s, _graceful)
    if args.stop_after_wave is not None:
        control.shutdown_at_wave(args.stop_after_wave)

    crawler = RayCrawler(
        job,
        args.corpus,
        out_dir=args.out,
        ckpt_dir=args.ckpt,
        keep_pages=args.command == "scrape" or args.jsonl is not None,
        index_mode=args.index_mode,
        control=control,
    )
    result = crawler.run(resume=args.resume)
    for s, h in prev_handlers.items():
        signal.signal(s, h)

    if args.command == "scrape" or args.jsonl:
        out = open(args.jsonl, "w") if args.jsonl else sys.stdout
        tbl = result.pages_table()
        fmt = "raw" if args.output_html else args.return_format
        content_by_url: dict[str, str] = {}
        if tbl is not None and fmt != "text":
            # distributed transform over the visited pages (corpus read
            # fused with the filter + converter tasks); "text" reuses the
            # crawl's own extracted column
            from .markdown import transform_corpus

            ct = transform_corpus(args.corpus, fmt, urls=set(result.visited))
            for batch in ct.iter_batches(batch_format="pyarrow"):
                content_by_url.update(
                    zip(batch.column("url").to_pylist(),
                        batch.column("content").to_pylist())
                )
        if tbl is not None:
            for i in range(tbl.num_rows):
                url = tbl.column("url")[i].as_py()
                text = tbl.column("text")[i].as_py()
                out.write(
                    json.dumps(
                        {
                            "url": url,
                            "title": tbl.column("title")[i].as_py(),
                            "description": tbl.column("description")[i].as_py(),
                            "text": text,
                            "content": text if fmt == "text" else content_by_url.get(url),
                            "status": tbl.column("status_code")[i].as_py(),
                        }
                    )
                    + "\n"
                )
        if args.jsonl:
            out.close()

    summary = {
        "visited": len(result.visited),
        "waves": len(result.metrics),
        "seen_shards": result.seen_shards,
        "out_dir": result.out_dir,
        "stopped": result.stopped,
    }
    if args.command == "download":
        from .sinks.download import download_pages

        manifest = download_pages(args.corpus, args.target_dir, set(result.visited))
        summary["downloaded"] = manifest.num_rows
        summary["target_dir"] = args.target_dir
    if args.warc:
        from .sinks.warc import write_warc_archive

        warc_manifest = write_warc_archive(
            args.corpus, args.warc, set(result.visited)
        )
        summary["warc_records"] = warc_manifest.num_rows
        summary["warc_dir"] = args.warc
    print(json.dumps(summary), file=sys.stderr)
    if started_ray:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
