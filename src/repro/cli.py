"""The ``xmorph`` command-line tool.

Mirrors the stand-alone tool of the paper's Section VIII: shred
documents into a store, type-check and evaluate guards, run guarded
queries, inspect shapes and reports.

Examples::

    xmorph shape books.xml
    xmorph check books.xml "MORPH author [ name book [ title ] ]"
    xmorph check books.xml "MORPH athor [ name ]" --format=json --strict
    xmorph evolve old.xml new.xml --guards guards/ --strict
    xmorph evolve olddoc newdoc --db bib.db --guards guards/ --format=json
    xmorph transform books.xml "MORPH author [ name ]" --indent 2
    xmorph query books.xml --guard "MORPH author [ name ]" \
        --query "for $a in /author return $a/name/text()"
    xmorph shred --db bib.db dblp dblp.xml
    xmorph update --db bib.db dblp --insert "1=new-article.xml" --delete 1.5
    xmorph transform --db bib.db dblp "MORPH author" -o authors.xml
    xmorph transform books.xml "MORPH author [ name ]" --profile
    xmorph transform --db bib.db dblp "MORPH author" --trace=json
    xmorph fsck --db bib.db --repair
    xmorph serve --db bib.db --workers 8 --readonly
    xmorph serve --db bib.db --port 9900 --trace-sample 10 --slow-ms 50
    xmorph metrics --port 9900
"""

from __future__ import annotations

import argparse
import os
import sys

import repro
from repro.errors import StorageError, XMorphError
from repro.storage import Database


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    try:
        status = arguments.handler(arguments)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader went away (``xmorph ... | head``): nothing to report.
        # Point stdout at /dev/null so the exit-time flush stays quiet too.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (OSError, ValueError):
            pass  # stdout is not a real descriptor (captured, in tests)
        return 1
    except (XMorphError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmorph",
        description="XMorph 2.0: shape-polymorphic XML transformations with query guards",
    )
    commands = parser.add_subparsers(required=True, metavar="command")

    shape = commands.add_parser("shape", help="print a document's adorned shape")
    shape.add_argument("document", help="path to an XML file")
    shape.add_argument("--stats", action="store_true", help="also print statistics")
    shape.set_defaults(handler=_cmd_shape)

    check = commands.add_parser(
        "check",
        help="statically analyze a guard (coded, source-spanned diagnostics)",
        description=(
            "Run the static analyzer: syntax (XM1xx), type analysis "
            "(XM2xx), information-loss (XM3xx) and lint (XM4xx) findings, "
            "each with a stable code, a severity, and a caret-underlined "
            "source excerpt.  Exit code 0 when clean, 1 on errors, 2 on "
            "warnings under --strict."
        ),
    )
    check.add_argument("document")
    check.add_argument("guard")
    check.add_argument(
        "--query",
        default=None,
        help="companion XQuery-lite query to check against the guard's output shape",
    )
    check.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help=(
            "text (caret excerpts), json (one JSON object per diagnostic), "
            "or github (workflow-command annotations for CI)"
        ),
    )
    check.add_argument(
        "--strict", action="store_true", help="treat warnings as failures (exit 2)"
    )
    check.set_defaults(handler=_cmd_check)

    evolve = commands.add_parser(
        "evolve",
        help="statically check a guard corpus across a schema evolution",
        description=(
            "Grade every guard in --guards against an old and a new "
            "arrangement of the data: 'compatible' guards produce the "
            "same output shape with the same loss status, 'degraded' "
            "guards still run but their output or loss status changes "
            "(XM603/XM604/XM605), 'broken' guards reference types or "
            "paths the evolved shape cannot produce (XM601/XM602).  "
            "OLD and NEW are XML files, or stored document names with "
            "--db.  Exit 0 when every guard is compatible, 1 on broken "
            "guards, 2 on degraded guards under --strict; with "
            "--expect, exit 0 iff the verdicts match the expectation "
            "file exactly."
        ),
    )
    evolve.add_argument("old", help="the current arrangement (XML file, or name with --db)")
    evolve.add_argument("new", help="the evolved arrangement (XML file, or name with --db)")
    evolve.add_argument(
        "--db",
        default=None,
        help="treat OLD and NEW as stored document names",
    )
    evolve.add_argument(
        "--guards",
        required=True,
        help="directory of .guard files (NAME.query sidecars are checked too)",
    )
    evolve.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help=(
            "text (caret excerpts), json (one xmorph-evolve/v1 object), "
            "or github (workflow-command annotations for CI)"
        ),
    )
    evolve.add_argument(
        "--strict", action="store_true", help="treat degraded guards as failures (exit 2)"
    )
    evolve.add_argument(
        "--expect",
        default=None,
        metavar="EXPECTED.json",
        help=(
            "JSON file mapping guard name to expected verdict; exit 1 on "
            "any mismatch (regression mode for CI corpora)"
        ),
    )
    evolve.set_defaults(handler=_cmd_evolve)

    transform = commands.add_parser("transform", help="transform a document with a guard")
    transform.add_argument("document", help="XML file, or stored name with --db")
    transform.add_argument("guard")
    transform.add_argument("--db", default=None, help="transform a stored document")
    transform.add_argument(
        "--indent", type=_non_negative, default=None, help="pretty-print width"
    )
    output = transform.add_mutually_exclusive_group()
    output.add_argument(
        "-o", "--output", metavar="PATH", help="write compact XML into PATH instead"
    )
    output.add_argument(
        "--profile",
        action="store_true",
        help="print the annotated plan (EXPLAIN ANALYZE) instead of the XML",
    )
    output.add_argument(
        "--trace",
        nargs="?",
        const="tree",
        choices=("tree", "json"),
        help="print the span tree (--trace=json: JSON lines) instead of the XML",
    )
    transform.add_argument("--reports", action="store_true", help="also print the reports")
    transform.set_defaults(handler=_cmd_transform)

    query = commands.add_parser("query", help="run a guarded XQuery-lite query")
    query.add_argument("document")
    query.add_argument("--guard", required=True)
    query.add_argument("--query", required=True)
    query.set_defaults(handler=_cmd_query)

    shred = commands.add_parser("shred", help="shred a document into a database")
    shred.add_argument("--db", required=True, help="database file")
    shred.add_argument("name", help="document name inside the database")
    shred.add_argument("document", help="path to an XML file")
    shred.set_defaults(handler=_cmd_shred)

    listing = commands.add_parser("ls", help="list documents in a database")
    listing.add_argument("--db", required=True)
    listing.set_defaults(handler=_cmd_ls)

    update = commands.add_parser(
        "update",
        help="apply subtree edits to a stored document incrementally",
        description=(
            "Patch a stored document in place — no full re-shred.  The "
            "edits form ONE batch applied in the order given on the "
            "command line, each op addressing the document as left by "
            "the previous one, committed through a single journaled "
            "flush (a crash recovers to the old or the new document, "
            "never a hybrid).  XML operands are file paths when a file "
            "of that name exists, inline XML otherwise.  Insert parents "
            "and delete/replace targets are dotted Dewey numbers in "
            "document order: 1 is the first root, 1.2 its second child "
            "(attributes come first and count); an insert parent of "
            "'-' inserts at the root level (write it as --insert=-=XML "
            "so the leading dash is not read as an option), and @POS "
            "picks the 1-based child slot (default: append)."
        ),
    )
    update.add_argument("--db", required=True, help="database file")
    update.add_argument("name", help="document name inside the database")
    update.add_argument(
        "--insert",
        action=_UpdateOpAction,
        metavar="PARENT[@POS]=XML",
        help="insert a subtree under PARENT at child slot POS (repeatable)",
    )
    update.add_argument(
        "--delete",
        action=_UpdateOpAction,
        metavar="DEWEY",
        help="delete the subtree rooted at DEWEY (repeatable)",
    )
    update.add_argument(
        "--replace",
        action=_UpdateOpAction,
        metavar="DEWEY=XML",
        help="replace the subtree rooted at DEWEY (repeatable)",
    )
    update.add_argument(
        "--json", action="store_true", help="emit the batch result as one JSON object"
    )
    update.set_defaults(handler=_cmd_update, ops=None)

    fsck = commands.add_parser(
        "fsck",
        help="check a database file: checksums, journal, btree, catalog",
        description=(
            "Offline integrity check: verify every page's CRC-32 trailer, "
            "inspect the write-ahead journal (sealed = a committed batch "
            "awaiting replay; corrupt = a pre-commit crash), walk the "
            "B+tree structure and cross-check each document's records "
            "against its catalog descriptor.  With --repair, sealed "
            "journals are replayed and corrupt ones quarantined as "
            "<journal>.corrupt.  A file in an older on-disk format is "
            "reported (XM500) and never migrated: re-shred it.  Exit 0 "
            "when clean (or fully repaired), 1 when problems remain."
        ),
    )
    fsck.add_argument("--db", required=True, help="database file to check")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="replay sealed journals, quarantine corrupt ones",
    )
    fsck.add_argument(
        "--json", action="store_true", help="emit the report as one JSON object"
    )
    fsck.set_defaults(handler=_cmd_fsck)

    dtd = commands.add_parser("dtd", help="print a document's shape as a DTD")
    dtd.add_argument("document")
    dtd.add_argument("--guard", default=None, help="describe the guard's output instead")
    dtd.set_defaults(handler=_cmd_dtd)

    infer = commands.add_parser("infer", help="infer a guard from an XQuery query")
    infer.add_argument("query", help="the XQuery-lite query text")
    infer.set_defaults(handler=_cmd_infer)

    quantify = commands.add_parser(
        "quantify", help="measure a transformation's actual information loss"
    )
    quantify.add_argument("document")
    quantify.add_argument("guard")
    quantify.set_defaults(handler=_cmd_quantify)

    diff = commands.add_parser("diff", help="diff the shapes of two documents")
    diff.add_argument("before")
    diff.add_argument("after")
    diff.set_defaults(handler=_cmd_diff)

    explain = commands.add_parser("explain", help="explain a guard in English")
    explain.add_argument("guard")
    explain.set_defaults(handler=_cmd_explain)

    serve = commands.add_parser(
        "serve",
        help="serve transform requests over stdin/stdout or TCP",
        description=(
            "A line-oriented request loop over a stored database: each "
            "input line is a JSON object {\"id\": ..., \"doc\": NAME, "
            "\"guard\": GUARD}, each output line the "
            "matching {\"id\": ..., \"ok\": ..., \"xml\"|\"error\": ...} "
            "response.  {\"cmd\": \"stats\"} reports serve.* counters, "
            "{\"cmd\": \"quit\"} (or EOF) ends the session.  Requests are "
            "evaluated on a shared thread pool; with --port, a threading "
            "TCP server runs the same loop per connection."
        ),
    )
    serve.add_argument("--db", required=True, help="database file to serve")
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="transform pool workers, used only with --deadline "
        "(without one, a request runs on its connection's thread)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds (XM540 on miss)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen on 127.0.0.1:PORT instead of stdin/stdout",
    )
    serve.add_argument(
        "--readonly",
        action="store_true",
        help="open the store with a shared reader lock (mode='r')",
    )
    serve.add_argument(
        "--trace-sample",
        type=int,
        default=0,
        metavar="N",
        help="trace one request in N into a JSONL file (0 = off)",
    )
    serve.add_argument(
        "--trace-file",
        default=None,
        help="where sampled request traces are appended (default DB.traces.jsonl)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log requests slower than MS milliseconds end to end",
    )
    serve.add_argument(
        "--slow-log",
        default=None,
        help="where slow-query records are appended (default DB.slow.jsonl)",
    )
    serve.set_defaults(handler=_cmd_serve)

    metrics = commands.add_parser(
        "metrics",
        help="print Prometheus metrics of a serve process",
        description=(
            "Scrape a live `xmorph serve --port` process's GET /metrics "
            "endpoint and print the exposition text."
        ),
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument(
        "--port", type=int, required=True, help="the serve process's TCP port"
    )
    metrics.set_defaults(handler=_cmd_metrics)

    return parser


def _non_negative(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _open_database(path: str, **options) -> Database:
    """Open an existing store for every ``--db`` subcommand but ``shred``.

    ``Database(path)`` creates what it does not find, so a mistyped
    path would otherwise leave an empty store (and its lock file)
    behind and report on that.
    """
    if not os.path.exists(path):
        raise StorageError(f"no such database: {path!r}")
    return Database(path, **options)


def _cmd_shape(arguments) -> int:
    forest = repro.parse_forest(_read(arguments.document))
    print(repro.extract_shape(forest).pretty())
    if arguments.stats:
        from repro.shape.statistics import collection_statistics

        print()
        print(collection_statistics(forest).pretty())
    return 0


def _cmd_check(arguments) -> int:
    from repro.analysis import analyze

    result = analyze(_read(arguments.document), arguments.guard, arguments.query)
    if arguments.format == "json":
        rendered = result.render_json()
        if rendered:
            print(rendered)
    elif arguments.format == "github":
        from repro.analysis import render_github

        rendered = render_github(result.diagnostics)
        if rendered:
            print(rendered)
        print(result.summary(), file=sys.stderr)
    else:
        rendered = result.render_text()
        if rendered:
            print(rendered)
        print(result.summary())
    return result.exit_code(strict=arguments.strict)


def _cmd_evolve(arguments) -> int:
    from repro.analysis.evolve import analyze_evolution, load_expectations, load_guards

    guards = load_guards(arguments.guards)
    if not guards:
        print(f"error: no .guard files in {arguments.guards}", file=sys.stderr)
        return 2
    if arguments.db is not None:
        with _open_database(arguments.db) as db:
            report = db.check_evolution(arguments.old, arguments.new, guards)
    else:
        report = analyze_evolution(
            _read(arguments.old), _read(arguments.new), guards
        )
    if arguments.format == "json":
        print(report.render_json())
    elif arguments.format == "github":
        rendered = report.render_github()
        if rendered:
            print(rendered)
        print(report.summary(), file=sys.stderr)
    else:
        print(report.render_text())
    if arguments.expect is not None:
        expectations = load_expectations(arguments.expect)
        mismatches = []
        for name, expected in sorted(expectations.items()):
            actual = report.verdict_of(name)
            if actual != expected:
                mismatches.append(f"{name}: expected {expected}, got {actual}")
        for verdict in report.verdicts:
            if verdict.name not in expectations:
                mismatches.append(
                    f"{verdict.name}: no expectation recorded "
                    f"(got {verdict.verdict})"
                )
        if mismatches:
            print("verdict mismatches:", file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"{len(expectations)} verdict(s) match expectations", file=sys.stderr
        )
        return 0
    return report.exit_code(strict=arguments.strict)


def _diagnose_failure(arguments) -> bool:
    """After a pipeline error on a file, retry as a static analysis.

    Returns True when the analyzer reproduced the failure as spanned
    diagnostics (printed to stderr), so the caller can skip the bare
    exception message.
    """
    from repro.analysis import analyze

    try:
        result = analyze(_read(arguments.document), arguments.guard)
    except XMorphError:
        return False
    if result.ok:
        return False
    print(result.render_text(), file=sys.stderr)
    print(result.summary(), file=sys.stderr)
    return True


def _cmd_transform(arguments) -> int:
    if arguments.output is not None and arguments.indent is not None:
        print(
            "error: -o/--output streams compact XML (the text sink has no "
            "indented form); drop --indent or --output",
            file=sys.stderr,
        )
        return 2
    if arguments.db is not None:
        with _open_database(arguments.db) as db:
            return _transform(arguments, db=db)
    index = repro.Interpreter(repro.parse_forest(_read(arguments.document))).index
    try:
        return _transform(arguments, index)
    except XMorphError:
        if _diagnose_failure(arguments):
            return 1
        raise


def _transform(arguments, index=None, db: Database | None = None) -> int:
    """Run the guard over a file's ``index`` or, with ``db``, over the
    stored document (whose index then loads inside what is profiled)."""
    from repro.engine.profile import profile

    name, guard, path = arguments.document, arguments.guard, arguments.output

    def plan():
        return db.transform(name, guard) if db else repro.Interpreter(index).transform(guard)

    if arguments.profile or arguments.trace:
        report = profile(plan, db)
        result = report.result
        if arguments.profile:
            print(report.pretty())
        else:
            print(report.trace_json() if arguments.trace == "json" else report.span_tree())
    else:
        # Planned before PATH opens: a bad guard or a missing document leaves it as it was.
        result = plan()
        if path is None:
            print(result.xml(indent=arguments.indent).rstrip("\n"))
        else:
            sink = open(path, "w", encoding="utf-8")
            try:
                with sink:
                    stats = result.write(sink)
            except BaseException:
                os.remove(path)
                raise
            print(f"streamed {stats.nodes_written} nodes ({stats.characters} chars) to {path}")
    if arguments.reports:
        from repro.engine.report import full_report

        print("\n" + full_report(result, result.source), file=sys.stderr)
    return 0


def _cmd_query(arguments) -> int:
    guarded = repro.GuardedQuery(arguments.guard, arguments.query)
    outcome = guarded.run(repro.parse_forest(_read(arguments.document)))
    print(outcome.xml())
    return 0


def _cmd_shred(arguments) -> int:
    with Database(arguments.db) as db:
        descriptor = db.store_document(arguments.name, _read(arguments.document))
    print(
        f"shredded {descriptor['nodes']} nodes as {arguments.name!r} "
        f"in {descriptor['shred_seconds']:.2f}s"
    )
    return 0


def _cmd_ls(arguments) -> int:
    with _open_database(arguments.db) as db:
        for name in db.document_names():
            info = db.describe(name)
            print(f"{name}: {info['nodes']} nodes, {info['text_bytes']} text bytes")
    return 0


class _UpdateOpAction(argparse.Action):
    """Collect --insert/--delete/--replace as (kind, operand) in the
    order they appear on the command line — batch semantics make the
    interleaving significant, so the default one-list-per-flag
    ``action="append"`` would lose exactly what matters."""

    def __call__(self, parser, namespace, value, option_string=None):
        ops = getattr(namespace, "ops", None) or []
        ops.append((self.dest, value))
        namespace.ops = ops


def _cmd_update(arguments) -> int:
    import json as json_module

    from repro.storage.update import DeleteSubtree, InsertSubtree, ReplaceSubtree

    def subtree(operand: str) -> str:
        if os.path.exists(operand):
            return _read(operand)
        return operand

    ops = []
    for kind, value in arguments.ops or []:
        if kind == "delete":
            ops.append(DeleteSubtree(value))
            continue
        target, separator, payload = value.partition("=")
        if not separator or not target or not payload:
            print(
                f"error: --{kind} expects TARGET=XML, got {value!r}",
                file=sys.stderr,
            )
            return 2
        if kind == "replace":
            ops.append(ReplaceSubtree(target, subtree(payload)))
            continue
        parent, at, slot = target.partition("@")
        position = None
        if at:
            try:
                position = int(slot)
            except ValueError:
                print(
                    f"error: --insert position {slot!r} is not an integer",
                    file=sys.stderr,
                )
                return 2
        ops.append(
            InsertSubtree(
                None if parent == "-" else parent, subtree(payload), position
            )
        )
    if not ops:
        print(
            "error: nothing to do (give --insert, --delete and/or --replace)",
            file=sys.stderr,
        )
        return 2
    with _open_database(arguments.db) as db:
        result = db.apply_batch(arguments.name, ops)
    if arguments.json:
        print(json_module.dumps(result.as_dict(), indent=2))
    else:
        print(result.summary())
    return 0


def _cmd_fsck(arguments) -> int:
    import json as json_module

    from repro.storage.fsck import fsck

    report = fsck(arguments.db, repair=arguments.repair)
    if arguments.json:
        print(json_module.dumps(report.as_dict(), indent=2))
    else:
        print(report.pretty())
    return 0 if report.ok else 1


def _cmd_dtd(arguments) -> int:
    from repro.shape.dtdgen import forest_to_dtd, shape_to_dtd

    forest = repro.parse_forest(_read(arguments.document))
    if arguments.guard is None:
        print(forest_to_dtd(forest))
    else:
        result = repro.Interpreter(forest).compile(arguments.guard)
        print(shape_to_dtd(result.target_shape))
    return 0


def _cmd_infer(arguments) -> int:
    from repro.engine.inference import infer_guard

    inferred = infer_guard(arguments.query)
    if not inferred.guards:
        print("(the query navigates no paths; nothing to infer)", file=sys.stderr)
        return 1
    for guard in inferred.guards:
        print(guard)
    return 0


def _cmd_quantify(arguments) -> int:
    from repro.typing.quantify import quantify_loss

    forest = repro.parse_forest(_read(arguments.document))
    result = repro.transform(forest, f"CAST ({arguments.guard})")
    quantity = quantify_loss(forest, result)
    print(quantity.summary())
    print(
        f"details: {quantity.preserved_edges}/{quantity.source_edges} closest "
        f"edges preserved, {quantity.added_edges} added"
    )
    return 0


def _cmd_diff(arguments) -> int:
    from repro.shape.diff import diff_shapes

    before = repro.extract_shape(repro.parse_forest(_read(arguments.before)))
    after = repro.extract_shape(repro.parse_forest(_read(arguments.after)))
    print(diff_shapes(before, after).pretty())
    return 0


def _cmd_explain(arguments) -> int:
    from repro.engine.explain import explain_guard

    print(explain_guard(arguments.guard))
    return 0


def _cmd_serve(arguments) -> int:
    from repro.serve import ServeTelemetry, serve_forever, serve_loop

    with _open_database(arguments.db, mode="r" if arguments.readonly else "w") as db:
        trace_file = arguments.trace_file
        if trace_file is None and arguments.trace_sample > 0:
            trace_file = arguments.db + ".traces.jsonl"
        slow_log = arguments.slow_log
        if slow_log is None and arguments.slow_ms is not None:
            slow_log = arguments.db + ".slow.jsonl"
        telemetry = ServeTelemetry(
            stats=db.stats,
            trace_sample=arguments.trace_sample,
            trace_file=trace_file,
            slow_ms=arguments.slow_ms,
            slow_log=slow_log,
        )
        if arguments.port is not None:
            server = serve_forever(
                db,
                port=arguments.port,
                workers=arguments.workers,
                deadline=arguments.deadline,
                telemetry=telemetry,
            )
            host, port = server.server_address[:2]
            print(f"serving {arguments.db} on {host}:{port}", file=sys.stderr)
            if trace_file:
                print(f"sampled traces -> {trace_file}", file=sys.stderr)
            if slow_log:
                print(f"slow-query log -> {slow_log}", file=sys.stderr)
            try:
                server.serve_forever()
            except KeyboardInterrupt:  # pragma: no cover - interactive exit
                pass
            finally:
                server.shutdown()
                server.server_close()
            return 0
        # Binary stdin: the request-size limit counts bytes, as on a socket.
        stats = serve_loop(
            db,
            sys.stdin.buffer,
            sys.stdout,
            workers=arguments.workers,
            deadline=arguments.deadline,
            telemetry=telemetry,
        )
        print(
            f"served {stats.requests} requests "
            f"({stats.ok} ok, {stats.errors} errors)",
            file=sys.stderr,
        )
    return 0


def _fetch_metrics(host: str, port: int, timeout: float = 2.0) -> str:
    """One ``GET /metrics`` scrape of a serve process; the exposition text."""
    import socket

    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        chunks = []
        while chunk := conn.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).decode("utf-8", errors="replace").partition("\r\n\r\n")
    status = head.splitlines()[0] if head else ""
    if "200" not in status:
        raise ConnectionError(f"metrics endpoint answered: {status or 'nothing'}")
    return body


def _cmd_metrics(arguments) -> int:
    try:
        text = _fetch_metrics(arguments.host, arguments.port)
    except OSError as error:
        print(
            f"error: cannot scrape {arguments.host}:{arguments.port}: {error}",
            file=sys.stderr,
        )
        return 1
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
