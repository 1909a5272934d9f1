"""A stored bibliography: guards over the embedded database (Section VIII).

Shreds a DBLP-shaped collection into the XMorph store (paged file,
B+tree, the four tables of Figure 8), then evaluates guards against it
— compiling touches only the tiny adorned-shape records; rendering
reads exactly the type sequences the target shape needs.

Run:  python examples/bibliography_database.py
"""

import os
import tempfile

import repro
from repro.storage import Database
from repro.workloads import generate_dblp
from repro.xquery import QueryContext, evaluate


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bibliography.db")
        with Database(path, cache_pages=2048) as db:
            print("== shredding 2,000 DBLP records ==")
            descriptor = db.store_document("dblp", generate_dblp(2000))
            print(
                f"stored {descriptor['nodes']} nodes "
                f"({descriptor['text_bytes']} text bytes) "
                f"in {descriptor['shred_seconds']:.2f}s"
            )

            print("\n== compiling a guard touches only the shape ==")
            db.drop_cache()
            db.index("dblp")
            before = db.stats.cumulative_blocks
            planned = db.transform("dblp", "MORPH author [ title [ year ] ]")  # unread
            print(
                f"guard type: {planned.loss.guard_type}; "
                f"blocks read during compile: {db.stats.cumulative_blocks - before}"
            )

            print("\n== rendering reads only the needed type sequences ==")
            before = db.stats.cumulative_blocks
            result = db.transform("dblp", "CAST MORPH author [ title [ year ] ]")
            print(
                f"rendered {result.forest.node_count()} nodes using "
                f"{db.stats.cumulative_blocks - before} blocks "
                f"(document total: {descriptor['nodes']} nodes)"
            )

            print("\n== a guarded analytical query over the store ==")
            context = QueryContext.for_forest(result.forest)
            busiest = evaluate(
                "for $a in /author where count($a/title) > 2 "
                "return concat($a/text(), ': ', string(count($a/title)))",
                context,
            )
            for line in busiest[:10]:
                print(f"  {line}")

            print("\n== storage engine statistics (vmstat analog) ==")
            stats = db.stats
            print(f"blocks in/out: {stats.blocks_in}/{stats.blocks_out}")
            reads = stats.histogram("storage.page_read_seconds")
            print(f"page reads: {reads.count} in {reads.total * 1e3:.2f} ms (measured)")


if __name__ == "__main__":
    main()
