"""Cross-module integration: realistic end-to-end pipelines."""

import io

import repro
from repro.engine.inference import infer_guard
from repro.storage import Database
from repro.workloads import generate_dblp, generate_nasa, generate_xmark
from repro.xmltree import parse_forest

from benchmarks.existdb import ExistStore
from tests.engine.test_parity import assert_shape_parity


class TestStoreGuardQueryPipeline:
    """Shred → guard-transform → query, all over the storage engine."""

    def test_dblp_author_statistics(self, tmp_path):
        with Database(str(tmp_path / "p.db")) as db:
            db.store_document("dblp", generate_dblp(300))
            result = db.transform("dblp", "CAST MORPH author [ title [ year ] ]")
            context = repro.QueryContext.for_forest(result.forest)
            counts = repro.evaluate("count(/author)", context)
            assert counts[0] > 300  # multi-author records multiply authors
            years = repro.evaluate("distinct-values(//year)", context)
            assert years and all(1970 <= float(y) <= 2011 for y in years)

    def test_same_guard_memory_and_store_agree(self, tmp_path):
        forest = generate_nasa(40)
        guard = "CAST MORPH dataset [ title keyword ]"
        memory = repro.transform(forest, guard)
        with Database(str(tmp_path / "n.db")) as db:
            db.store_document("nasa", forest)
            stored = db.transform("nasa", guard)
            assert stored.forest.canonical() == memory.forest.canonical()

    def test_streamed_render_over_store(self, tmp_path):
        forest = generate_dblp(150)
        with Database(str(tmp_path / "s.db")) as db:
            db.store_document("dblp", forest)
            guard = "CAST MORPH author [ title ]"
            compiled = db.transform("dblp", guard)
            # Reference and both sinks over the *stored* index ...
            _ref, _tree, text, _stats = assert_shape_parity(
                compiled.target_shape, db.index("dblp")
            )
            # ... are what the database's two entry points answer with.
            assert db.transform("dblp", guard).xml() == text
            sink = io.StringIO()
            db.stream_transform("dblp", guard, sink)
            assert sink.getvalue() == text


class TestInferThenGuard:
    """A query arrives, the guard is inferred, and the pair runs anywhere."""

    def test_inferred_guard_protects_query_across_shapes(self, fig1a, fig1b, fig1c):
        query = "for $a in /data/author return $a/book/title/text()"
        guard = infer_guard(query).guard
        guarded = repro.GuardedQuery(guard, query)
        answers = [sorted(guarded.run(forest).items) for forest in (fig1a, fig1b, fig1c)]
        assert answers == [["X", "Y"]] * 3

    def test_inferred_guard_on_xmark(self):
        forest = generate_xmark(0.001)
        query = "for $p in /site/people/person return $p/name/text()"
        inferred = infer_guard(query)
        guarded = repro.GuardedQuery(f"CAST ({inferred.guard})", query)
        outcome = guarded.run(forest)
        assert len(outcome.items) > 0


class TestBaselineAgreement:
    """Both engines must return the same data, whatever the cost."""

    def test_exist_query_matches_guarded_transform(self, tmp_path):
        forest = generate_dblp(120)
        with ExistStore(str(tmp_path / "e.db")) as exist:
            exist.store_document("dblp", forest)
            exist_names = sorted(
                repro.serialize(n) if hasattr(n, "name") else str(n)
                for n in exist.query("dblp", "//author")
            )
        xmorph = repro.transform(forest, "CAST MORPH author")
        xmorph_names = sorted(repro.serialize(root) for root in xmorph.forest.roots)
        assert exist_names == xmorph_names

    def test_exist_dump_equals_database_reconstruction(self, tmp_path):
        forest = generate_nasa(25)
        with ExistStore(str(tmp_path / "e2.db")) as exist:
            exist.store_document("nasa", forest)
            dumped = parse_forest(exist.dump("nasa"))
        with Database(str(tmp_path / "d2.db")) as db:
            db.store_document("nasa", forest)
            reconstructed = db.load_forest("nasa")
        assert dumped.canonical() == reconstructed.canonical()


class TestComposedGuardChains:
    def test_three_stage_pipeline(self, fig1a):
        result = repro.transform(
            fig1a,
            "MORPH author [ name book [ title ] ] "
            "| TRANSLATE author -> writer "
            "| MUTATE (DROP name)",
        )
        roots = {r.name for r in result.forest.roots}
        assert roots == {"writer"}
        names = result.forest.find_named("name")
        assert not names

    def test_guard_composes_with_restrict(self, fig1a):
        result = repro.transform(
            fig1a,
            "CAST MORPH (RESTRICT publisher [ name ]) [ book.title ]",
        )
        for publisher in result.forest.roots:
            assert publisher.name == "publisher"
            assert publisher.find("title") is not None
