"""Tests for the xmorph command-line tool."""

import os

import pytest

from repro.cli import main

from tests.conftest import FIG1A


@pytest.fixture
def doc(tmp_path):
    path = tmp_path / "books.xml"
    path.write_text(FIG1A)
    return str(path)


@pytest.fixture
def db(doc, tmp_path):
    """``doc`` shredded as ``books``."""
    path = str(tmp_path / "o.db")
    assert main(["shred", "--db", path, "books", doc]) == 0
    return path


class TestCommands:
    def test_shape(self, doc, capsys):
        assert main(["shape", doc]) == 0
        out = capsys.readouterr().out
        assert "data" in out and "book" in out

    def test_shape_stats(self, doc, capsys):
        assert main(["shape", doc, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "types:" in out and "nodes:" in out

    def test_check(self, doc, capsys):
        assert main(["check", doc, "MORPH author [ name ]"]) == 0
        assert "strongly-typed" in capsys.readouterr().out

    def test_check_misspelled_label(self, doc, capsys):
        assert main(["check", doc, "MORPH athor [ name ]"]) == 1
        out = capsys.readouterr().out
        assert "error[XM201]" in out
        assert "did you mean 'author'" in out
        assert "^^^^^" in out  # caret excerpt under 'athor'

    def test_check_json_format(self, doc, capsys):
        import json

        assert main(["check", doc, "MORPH athor [ name ]", "--format=json"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert all(
            {"code", "severity", "message", "span"} <= set(p) for p in payloads
        )
        assert any(p["code"] == "XM201" for p in payloads)

    def test_check_strict_promotes_warnings(self, doc, capsys):
        guard = "MORPH author [ !name ]"  # redundant bang: a warning
        assert main(["check", doc, guard]) == 0
        capsys.readouterr()
        assert main(["check", doc, guard, "--strict"]) == 2
        assert "warning[XM402]" in capsys.readouterr().out

    def test_check_with_query(self, doc, capsys):
        code = main(
            [
                "check",
                doc,
                "MORPH author [ name ]",
                "--query",
                "for $a in /author return $a/title/text()",
                "--strict",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "warning[XM404]" in out
        assert "<query>" in out

    def test_transform(self, doc, capsys):
        assert main(["transform", doc, "MORPH author [ name ]"]) == 0
        assert "<author>" in capsys.readouterr().out

    def test_transform_reports(self, doc, capsys):
        assert main(["transform", doc, "MORPH author [ name ]", "--reports"]) == 0
        captured = capsys.readouterr()
        assert "information loss" in captured.err
        assert "label resolution" in captured.err
        assert "target shape" in captured.err
        assert "output schema (DTD)" in captured.err
        assert "statistics" in captured.err

    def test_query(self, doc, capsys):
        code = main(
            [
                "query",
                doc,
                "--guard",
                "MORPH author [ name book [ title ] ]",
                "--query",
                "for $a in /author return $a/book/title/text()",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "X" in out and "Y" in out

    def test_db_stream_transform(self, doc, tmp_path, capsys):
        db = str(tmp_path / "s.db")
        out = str(tmp_path / "out.xml")
        assert main(["shred", "--db", db, "books", doc]) == 0
        assert main(["transform", "--db", db, "books", "MORPH author [ name ]", "-o", out]) == 0
        assert "streamed" in capsys.readouterr().out
        import repro

        streamed = repro.parse_forest(open(out).read())
        assert len(streamed.roots) == 2

    def test_db_stream_transform_refuses_indent(self, doc, tmp_path, capsys):
        # The text sink behind -o has no indented form; dropping --indent
        # silently would hand back compact XML under a pretty-print flag.
        db = str(tmp_path / "s.db")
        out = tmp_path / "out.xml"
        assert main(["shred", "--db", db, "books", doc]) == 0
        capsys.readouterr()
        code = main(
            ["transform", "--db", db, "books", "MORPH author", "--indent", "2", "-o", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--indent" in captured.err and "--output" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == "" and not out.exists()

    def test_shred_ls_and_db_transform(self, doc, tmp_path, capsys):
        db = str(tmp_path / "bib.db")
        assert main(["shred", "--db", db, "books", doc]) == 0
        assert main(["ls", "--db", db]) == 0
        assert "books" in capsys.readouterr().out
        assert main(["transform", "--db", db, "books", "MORPH title"]) == 0
        assert "<title>" in capsys.readouterr().out
        # The storage line of a stored profile holds what --stats printed.
        assert main(["transform", "--db", db, "books", "MORPH title", "--profile"]) == 0
        storage = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("storage: ")
        ]
        assert len(storage) == 1
        assert "blocks_read=" in storage[0] and "page_reads=" in storage[0]


class TestUpdateCommand:
    @pytest.fixture
    def stored(self, tmp_path):
        source = tmp_path / "lib.xml"
        source.write_text(
            "<lib><book><title>T1</title></book>"
            "<book><title>T2</title></book></lib>"
        )
        db = str(tmp_path / "u.db")
        assert main(["shred", "--db", db, "doc", str(source)]) == 0
        return db

    def test_ops_interleave_into_one_batch(self, stored, tmp_path, capsys):
        subtree = tmp_path / "new.xml"
        subtree.write_text("<book><title>T0</title></book>")
        capsys.readouterr()
        # File-path insert at slot 1, then delete the displaced last
        # book, then an inline-XML replace — applied in this order.
        assert (
            main(
                [
                    "update", "--db", stored, "doc",
                    "--insert", f"1@1={subtree}",
                    "--delete", "1.3",
                    "--replace", "1.2=<pamphlet><title>P</title></pamphlet>",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3 op(s)" in out
        assert main(["transform", "--db", stored, "doc", "MORPH title"]) == 0
        titles = capsys.readouterr().out
        assert "T0" in titles and "P" in titles
        assert "T1" not in titles and "T2" not in titles

    def test_json_result(self, stored, capsys):
        import json

        capsys.readouterr()
        assert (
            main(["update", "--db", stored, "doc", "--json", "--delete", "1.2"]) == 0
        )
        result = json.loads(capsys.readouterr().out)
        assert result["ops"] == 1
        assert result["nodes_removed"] == 2  # the book and its title
        assert result["new_fingerprint"] != result["old_fingerprint"]

    def test_operand_errors_exit_2(self, stored, capsys):
        assert main(["update", "--db", stored, "doc"]) == 2
        assert "nothing to do" in capsys.readouterr().err
        assert main(["update", "--db", stored, "doc", "--insert", "oops"]) == 2
        assert "expects TARGET=XML" in capsys.readouterr().err
        assert main(["update", "--db", stored, "doc", "--insert", "1@x=<a/>"]) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_bad_target_is_a_coded_error(self, stored, capsys):
        assert main(["update", "--db", stored, "doc", "--delete", "1.99"]) == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flag, operand",
        [
            ("--delete", "1.x"),
            ("--delete", ""),
            ("--delete", "1.0"),
            ("--insert", "1.0=<z/>"),
            ("--replace", "1..2=<z/>"),
        ],
    )
    def test_a_malformed_reference_is_one_error_line(self, stored, capsys, flag, operand):
        """It used to be a ``ValueError`` traceback out of ``Dewey.parse``."""
        with open(stored, "rb") as handle:
            image = handle.read()
        capsys.readouterr()
        assert main(["update", "--db", stored, "doc", flag, operand]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: not a node reference: ") and error.count("\n") == 1
        with open(stored, "rb") as handle:
            assert handle.read() == image


class TestRunAndTrace:
    """``transform``'s output flags: the profile and the trace, on a file
    (in memory) and on a stored document."""

    def test_run_prints_xml_by_default(self, doc, capsys):
        assert main(["transform", doc, "MORPH author [ name ]"]) == 0
        assert "<author>" in capsys.readouterr().out

    def test_run_profile_prints_annotated_plan(self, doc, capsys):
        assert main(["transform", doc, "MORPH author [ name ]", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "author  rows=2" in out
        assert "name  rows=2" in out
        assert "lang.parse" in out
        assert "typing.type-analysis" in out
        assert "pipeline.render" in out
        assert "<author>" not in out
        # A file is profiled in memory: there is no store to report on.
        assert "storage:" not in out

    def test_run_profile_json_is_valid_and_complete(self, doc, tmp_path, capsys):
        import json

        db = str(tmp_path / "trace.db")
        assert main(["shred", "--db", db, "books", doc]) == 0
        capsys.readouterr()
        code = main(["transform", "--db", db, "books", "MORPH author [ name ]", "--trace=json"])
        assert code == 0
        names, metrics = [], None
        for line in capsys.readouterr().out.strip().splitlines():
            record = json.loads(line)
            if record["type"] == "span":
                names.append(record["name"])
            elif record["type"] == "metrics":
                metrics = record
        for expected in ("lang.parse", "typing.type-analysis", "pipeline.render"):
            assert expected in names
        assert any(key.startswith("storage.") for key in metrics["counters"])

    def test_run_profile_json_stdout(self, doc, capsys):
        assert main(["transform", doc, "MORPH author [ name ]", "--trace=json"]) == 0
        assert '"type": "trace"' in capsys.readouterr().out

    def test_run_against_database(self, doc, tmp_path, capsys):
        db = str(tmp_path / "run.db")
        assert main(["shred", "--db", db, "books", doc]) == 0
        capsys.readouterr()
        assert main(["transform", "--db", db, "books", "MORPH author [ name ]", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "storage: blocks_read=" in out

    def test_trace_prints_span_tree(self, doc, capsys):
        assert main(["transform", doc, "MORPH author [ name ]", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "pipeline.compile" in out
        assert "  lang.parse" in out
        assert "counters:" in out
        assert "<author>" not in out

    def test_trace_json(self, doc, capsys):
        import json

        assert main(["transform", doc, "MORPH author [ name ]", "--trace=json"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            json.loads(line)

    def test_run_bad_guard_reports_error(self, doc, capsys):
        assert main(["transform", doc, "MORPH [", "--profile"]) == 1
        err = capsys.readouterr().err
        assert "error[XM1" in err
        assert "^" in err  # caret excerpt pointing at the offending token

    @pytest.mark.parametrize(
        "flags", [[], ["--trace"], ["-o", "{out}"]], ids=["xml", "trace", "output"]
    )
    def test_every_output_mode_diagnoses_a_bad_guard(self, doc, tmp_path, capsys, flags):
        out = str(tmp_path / "out.xml")
        flags = [flag.format(out=out) for flag in flags]
        assert main(["transform", doc, "MORPH ["] + flags) == 1
        captured = capsys.readouterr()
        assert "error[XM102]" in captured.err and "^" in captured.err
        assert captured.out == "" and not os.path.exists(out)

    def test_reports_on_a_stored_document(self, doc, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        assert main(["shred", "--db", db, "books", doc]) == 0
        capsys.readouterr()
        assert main(["transform", "--db", db, "books", "MORPH author [ name ]", "--reports"]) == 0
        captured = capsys.readouterr()
        assert "<author>" in captured.out
        assert "source shape" in captured.err and "information loss" in captured.err


class TestOutputFile:
    """``-o PATH`` compiles before it opens PATH, and removes what a
    failed render left, so a failed transform leaves PATH as it was."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--db", "{db}", "books", "MORPH ["],
            ["--db", "{db}", "nope", "MORPH author"],
            ["{doc}", "MORPH ["],
            ["{doc}", "MORPH athor [ name ]"],
        ],
        ids=["stored bad guard", "missing document", "file bad guard", "file unknown label"],
    )
    def test_a_failed_transform_leaves_path_byte_identical(
        self, argv, doc, db, tmp_path, capsys
    ):
        keep = tmp_path / "keep.xml"
        keep.write_bytes(b"precious\n")
        capsys.readouterr()
        argv = [part.format(db=db, doc=doc) for part in argv]
        assert main(["transform", *argv, "-o", str(keep)]) == 1
        assert capsys.readouterr().err.count("error") >= 1
        assert keep.read_bytes() == b"precious\n"

    def test_a_failed_render_removes_the_partial_file(self, db, tmp_path, monkeypatch):
        from repro.engine.interpreter import TransformResult

        def broken(self, out):
            out.write("<author>")
            raise OSError("disk full")

        monkeypatch.setattr(TransformResult, "write", broken)
        out = tmp_path / "partial.xml"
        assert main(["transform", "--db", db, "books", "MORPH author", "-o", str(out)]) == 1
        assert not out.exists()

    def test_both_routes_write_the_same_bytes(self, doc, db, tmp_path, capsys):
        stored, memory = tmp_path / "stored.xml", tmp_path / "memory.xml"
        guard = "MORPH author [ name book [ title ] ]"
        assert main(["transform", "--db", db, "books", guard, "-o", str(stored)]) == 0
        assert main(["transform", doc, guard, "-o", str(memory)]) == 0
        assert stored.read_bytes() == memory.read_bytes()
        capsys.readouterr()
        assert main(["transform", doc, guard]) == 0
        assert capsys.readouterr().out == memory.read_text() + "\n"

    @pytest.mark.parametrize("stored", [False, True], ids=["file", "stored"])
    def test_reports_count_the_render(self, doc, db, tmp_path, capsys, stored):
        source = ["--db", db, "books"] if stored else [doc]
        out = str(tmp_path / "r.xml")
        assert main(["transform", *source, "MORPH author [ name ]", "-o", out, "--reports"]) == 0
        err = capsys.readouterr().err
        assert "nodes read 4, written 4, closest joins 1" in err
        assert "compile only" not in err

    def test_output_excludes_profile_and_trace(self, doc, tmp_path, capsys):
        for flag in ("--profile", "--trace"):
            with pytest.raises(SystemExit) as exited:
                main(["transform", doc, "MORPH author", "-o", str(tmp_path / "x.xml"), flag])
            assert exited.value.code == 2
            assert "not allowed with" in capsys.readouterr().err
        assert not (tmp_path / "x.xml").exists()


class TestPrintedOutput:
    """Every mode of ``xmorph transform`` reads the one result it planned."""

    @pytest.mark.parametrize("width", ["-1", "two", "1.5"])
    def test_indent_is_a_non_negative_integer(self, doc, width, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["transform", doc, "MORPH author", "--indent", width])
        assert exited.value.code == 2
        assert "--indent" in capsys.readouterr().err

    def test_indented_output_ends_in_one_newline(self, doc, db, capsys):
        import repro
        from repro.xmltree.serializer import serialize

        guard = "MORPH author [ name ]"
        expected = serialize(repro.transform(repro.parse_forest(FIG1A), guard).forest, indent=2)
        for source in ([doc], ["--db", db, "books"]):
            assert main(["transform", *source, guard, "--indent", "2"]) == 0
            assert capsys.readouterr().out == expected
        assert main(["transform", doc, guard, "--indent", "0"]) == 0
        assert not capsys.readouterr().out.endswith("\n\n")

    @pytest.mark.parametrize("stored", [False, True], ids=["file", "stored"])
    def test_reports_render_nothing_again(self, doc, db, capsys, monkeypatch, stored):
        from repro.engine.compile import CompiledRender

        def tree_sink(self, index):
            raise AssertionError("--reports built the output tree")

        monkeypatch.setattr(CompiledRender, "run", tree_sink)
        source = ["--db", db, "books"] if stored else [doc]
        assert main(["transform", *source, "MORPH author [ name ]", "--reports"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("<author>")
        assert "nodes read 4, written 4, closest joins 1" in captured.err


class TestToolingCommands:
    def test_dtd(self, doc, capsys):
        assert main(["dtd", doc]) == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT data (book+)>" in out

    def test_dtd_of_guard_output(self, doc, capsys):
        assert main(["dtd", doc, "--guard", "MORPH author [ name ]"]) == 0
        assert "<!ELEMENT author (name)>" in capsys.readouterr().out

    def test_infer(self, capsys):
        code = main(["infer", "for $a in /data/author return $a/book/title"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "MORPH data [ author [ book [ title ] ] ]"

    def test_infer_nothing(self, capsys):
        assert main(["infer", "1 + 1"]) == 1

    def test_quantify(self, doc, capsys):
        assert main(["quantify", doc, "MUTATE data"]) == 0
        out = capsys.readouterr().out
        assert "loses 0.0%" in out and "manufactures 0.0%" in out

    def test_diff(self, doc, tmp_path, capsys):
        from tests.conftest import FIG1B

        other = tmp_path / "b.xml"
        other.write_text(FIG1B)
        assert main(["diff", doc, str(other)]) == 0
        assert "moved: publisher" in capsys.readouterr().out

    def test_explain(self, capsys):
        assert main(["explain", "MORPH author [ name ]"]) == 0
        out = capsys.readouterr().out
        assert "ONLY these types" in out


class TestServeCommands:
    def test_metrics_port_scrapes_a_live_server(self, doc, tmp_path, capsys):
        import threading

        from repro.serve import serve_forever
        from repro.storage import Database

        db = str(tmp_path / "m.db")
        assert main(["shred", "--db", db, "books", doc]) == 0
        with Database(db, mode="r") as handle:
            handle.transform("books", "MORPH author [ name ]").xml()
            server = serve_forever(handle, port=0, workers=2)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                capsys.readouterr()
                port = server.server_address[1]
                assert main(["metrics", "--port", str(port)]) == 0
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)
        out = capsys.readouterr().out
        assert "# TYPE xmorph_serve_workers gauge" in out
        assert "xmorph_serve_workers 2" in out

    def test_metrics_port_with_nothing_listening_is_an_error(self, capsys):
        import socket

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["metrics", "--port", str(port)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot scrape 127.0.0.1:{port}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--db", "x.db", "--mode", "process"],
            ["top", "--port", "9900"],
            ["run", "books.xml", "MORPH author"],
            ["trace", "books.xml", "MORPH author"],
            ["db-transform", "--db", "x.db", "books", "MORPH author"],
            ["transform", "books.xml", "MORPH author", "--profile-json", "-"],
            ["transform", "--db", "x.db", "books", "MORPH author", "--stats"],
            ["metrics", "--port", "9900", "--db", "x.db"],
            ["view", "books.xml", "MORPH author"],
        ],
        ids=[
            "serve --mode",
            "top",
            "run",
            "trace",
            "db-transform",
            "transform --profile-json",
            "transform --stats",
            "metrics --db",
            "view",
        ],
    )
    def test_removed_serve_surface_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestErrors:
    def test_bad_guard_reports_error(self, doc, capsys):
        assert main(["check", doc, "MORPH ["]) == 1
        out = capsys.readouterr().out
        assert "error[XM1" in out
        assert "^" in out

    def test_lossy_guard_blocked(self, tmp_path, capsys):
        path = tmp_path / "c.xml"
        from tests.conftest import FIG1C

        path.write_text(FIG1C)
        code = main(
            ["transform", str(path), "MORPH author [ title publisher [ name ] ]"]
        )
        assert code == 1
        assert "widening" in capsys.readouterr().err

    def test_missing_document_in_db(self, doc, tmp_path, capsys):
        db = str(tmp_path / "books.db")
        assert main(["shred", "--db", db, "books", doc]) == 0
        assert main(["transform", "--db", db, "nope", "MORPH x"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["fsck", "--db", "{db}"],
            ["fsck", "--db", "{db}", "--repair"],
            ["ls", "--db", "{db}"],
            ["transform", "--db", "{db}", "books", "MORPH author"],
            # The option comes first so each row keeps a distinct id
            # when test names are cut short.
            ["transform", "--profile", "--db", "{db}", "books", "MORPH author"],
            ["transform", "--trace", "--db", "{db}", "books", "MORPH author"],
            ["transform", "-o", "{out}", "books", "MORPH author", "--db", "{db}"],
            ["update", "--db", "{db}", "books", "--delete", "1.1"],
            ["evolve", "old", "new", "--db", "{db}", "--guards", "{guards}"],
            ["serve", "--db", "{db}"],
            ["serve", "--db", "{db}", "--readonly"],
        ],
        ids=lambda argv: " ".join(part for part in argv if "{" not in part),
    )
    def test_mistyped_db_is_an_error_and_creates_nothing(self, argv, tmp_path, capsys):
        # Only ``shred`` may create a store.
        guards = tmp_path / "guards"
        guards.mkdir()
        (guards / "a.guard").write_text("MORPH author [ name ]")
        db = str(tmp_path / "typo.db")
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / "out.xml")
        argv = [part.format(db=db, guards=guards, out=out) for part in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no such database: {db!r}\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("<a>&#xD800;</a>", "invalid character reference"),
            ("<a>" * 600 + "x" + "</a>" * 600, "levels deep"),
        ],
        ids=["surrogate-reference", "600-levels"],
    )
    def test_shred_of_hostile_text_is_one_error_line(
        self, doc, tmp_path, capsys, text, complaint
    ):
        from repro.storage import Database

        db = str(tmp_path / "h.db")
        assert main(["shred", "--db", db, "books", doc]) == 0
        with Database(db, mode="r") as handle:
            before = handle.tree.count()
        hostile = tmp_path / "hostile.xml"
        hostile.write_text(text)
        capsys.readouterr()
        assert main(["shred", "--db", db, "hostile", str(hostile)]) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and complaint in err[0]
        assert "line 1, column" in err[0]
        assert main(["fsck", "--db", db]) == 0
        with Database(db, mode="r") as handle:
            assert handle.tree.count() == before

    def test_shred_creates_the_store(self, doc, tmp_path, capsys):
        db = str(tmp_path / "new.db")
        assert main(["shred", "--db", db, "books", doc]) == 0
        assert os.path.exists(db)
        assert main(["ls", "--db", db]) == 0
        assert "books:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["shape", "{missing}"],
            ["check", "{missing}", "MORPH author"],
            ["transform", "{missing}", "MORPH author"],
            pytest.param(
                ["transform", "{missing}", "MORPH author", "--profile"],
                id="transform --profile",
            ),
            ["shred", "--db", "{db}", "books", "{missing}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_input_file_is_an_error_line(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.xml")
        db = str(tmp_path / "s.db")
        argv = [part.format(missing=missing, db=db) for part in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "nonexistent.xml" in captured.err
        assert "Traceback" not in captured.err

    def test_closed_pipe_exits_quietly(self, doc):
        # ``xmorph shape doc | true``: the reader is gone before we write.
        import subprocess
        import sys

        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "shape", doc],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""


class TestEvolveCommand:
    @pytest.fixture
    def evolution(self, tmp_path):
        old = tmp_path / "old.xml"
        new = tmp_path / "new.xml"
        old.write_text(
            "<catalog><book><title>X</title><isbn>1</isbn></book></catalog>"
        )
        new.write_text("<catalog><book><title>X</title></book></catalog>")
        guards = tmp_path / "guards"
        guards.mkdir()
        (guards / "keep.guard").write_text("MORPH book [ title isbn ]\n")
        (guards / "titles.guard").write_text("MORPH book [ title ]\n")
        return str(old), str(new), str(guards)

    def test_text_output_and_exit_code(self, evolution, capsys):
        old, new, guards = evolution
        assert main(["evolve", old, new, "--guards", guards]) == 1
        out = capsys.readouterr().out
        assert "== shape evolution ==" in out
        assert "removed: isbn" in out
        assert "keep: broken" in out
        assert "titles: compatible" in out
        assert "error[XM601]" in out

    def test_json_output(self, evolution, capsys):
        import json

        old, new, guards = evolution
        assert main(["evolve", old, new, "--guards", guards, "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "xmorph-evolve/v1"
        assert payload["counts"] == {"compatible": 1, "degraded": 0, "broken": 1}

    def test_github_output_names_guard_files(self, evolution, capsys):
        old, new, guards = evolution
        assert main(["evolve", old, new, "--guards", guards, "--format=github"]) == 1
        out = capsys.readouterr().out
        assert "::error " in out
        assert "keep.guard" in out

    def test_strict_flags_degraded(self, tmp_path, capsys):
        old = tmp_path / "old.xml"
        new = tmp_path / "new.xml"
        old.write_text(
            "<d><b><t>X</t><a><n>A</n></a></b><b><t>Y</t><a><n>B</n></a></b></d>"
        )
        new.write_text(
            "<d><b><t>X</t><a><n>A</n></a></b><b><t>Y</t></b></d>"
        )
        guards = tmp_path / "guards"
        guards.mkdir()
        (guards / "g.guard").write_text("MORPH b [ t a [ n ] ]\n")
        args = ["evolve", str(old), str(new), "--guards", str(guards)]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 2
        assert "warning[XM605]" in capsys.readouterr().out

    def test_expect_mismatch_fails(self, evolution, tmp_path, capsys):
        import json

        old, new, guards = evolution
        expect = tmp_path / "expected.json"
        expect.write_text(json.dumps({"keep": "compatible", "titles": "compatible"}))
        code = main(["evolve", old, new, "--guards", guards, "--expect", str(expect)])
        assert code == 1
        err = capsys.readouterr().err
        assert "keep: expected compatible, got broken" in err

    def test_expect_flags_unexpected_guards(self, evolution, tmp_path, capsys):
        import json

        old, new, guards = evolution
        expect = tmp_path / "expected.json"
        expect.write_text(json.dumps({"keep": "broken"}))
        code = main(["evolve", old, new, "--guards", guards, "--expect", str(expect)])
        assert code == 1
        assert "titles: no expectation recorded" in capsys.readouterr().err

    def test_empty_guards_dir_is_an_error(self, evolution, tmp_path, capsys):
        old, new, _guards = evolution
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["evolve", old, new, "--guards", str(empty)]) == 2
        assert "no .guard files" in capsys.readouterr().err

    def test_db_mode_runs_against_stored_documents(self, evolution, tmp_path, capsys):
        old, new, guards = evolution
        db = str(tmp_path / "evo.db")
        assert main(["shred", "--db", db, "v1", old]) == 0
        assert main(["shred", "--db", db, "v2", new]) == 0
        capsys.readouterr()
        code = main(["evolve", "v1", "v2", "--db", db, "--guards", guards])
        assert code == 1
        assert "keep: broken" in capsys.readouterr().out


class TestGithubFormat:
    def test_check_github_annotations(self, doc, capsys):
        code = main(["check", doc, "MORPH athor [ name ]", "--format=github"])
        assert code == 1
        captured = capsys.readouterr()
        line = captured.out.splitlines()[0]
        assert line.startswith("::error title=XM201")
        assert "athor" in line
        assert "summary" not in captured.out  # summary goes to stderr

    def test_check_github_clean_guard_annotates_only_notices(self, doc, capsys):
        code = main(["check", doc, "MORPH author [ name ]", "--format=github"])
        assert code == 0
        out = capsys.readouterr().out
        assert "::error" not in out and "::warning" not in out
        for line in out.splitlines():
            assert line.startswith("::notice")
