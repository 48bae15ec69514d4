"""Markdown transform of a crawl's visited pages, as a second Ray driver.

    python3 perfbench/transform_child.py GCS_ADDRESS CORPUS_DIR VISITED_JSON OUT_JSON

Runs ``spider_ray.markdown.transform_corpus(corpus, "markdown", urls=visited)``
on the benchmark's running Ray session and writes the urls of its non-empty
rows, its wall time and its Ray Data operator stats to OUT_JSON.  It runs in
its own process so that the benchmark can end a transform that never
finishes by ending this process, which releases everything it holds in the
session.
"""

import json
import sys
import time


def _operator_stats(summary) -> list[dict]:
    """Flatten a ``DatasetStatsSummary`` tree into one row per operator."""
    out, todo = [], [summary]
    while todo:
        s = todo.pop()
        for op in s.operators_stats:
            out.append({
                "operator": op.operator_name,
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "rows": (op.output_num_rows or {}).get("sum", 0),
            })
        todo.extend(s.parents)
    return out


def main(gcs_address: str, corpus_dir: str, visited_json: str, out_json: str) -> None:
    import ray

    from spider_ray.markdown import transform_corpus

    with open(visited_json) as f:
        visited = set(json.load(f))
    ray.init(address=gcs_address, log_to_driver=False)
    try:
        t0 = time.perf_counter()
        ds = transform_corpus(corpus_dir, "markdown", urls=visited).materialize()
        rows = ds.take_all()
        wall_s = time.perf_counter() - t0
        out = {
            "wall_s": wall_s,
            "urls_nonempty": [r["url"] for r in rows if r["content"]],
            "operators": _operator_stats(ds._get_stats_summary()),
        }
    finally:
        ray.shutdown()
    with open(out_json, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main(*sys.argv[1:5])
