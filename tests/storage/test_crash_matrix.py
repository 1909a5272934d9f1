"""The crash matrix: every failpoint, armed in turn, must never corrupt.

For each registered failpoint and each fault flavour the suite:

1. commits a document and closes the database cleanly (the baseline);
2. reopens, arms the failpoint, and stores a second document — which
   may "crash the process" (:class:`SimulatedCrash`) or fail with a
   coded storage error — then abandons the handle the way process
   death would (fds closed, lock released, nothing flushed);
3. reopens in fresh state and asserts the invariant: every committed
   document round-trips byte-identically, and the in-flight document
   is either fully present or cleanly absent — never half there;
4. runs ``fsck`` and asserts the recovered store is clean.

A final phase crashes *recovery itself* (failpoints during journal
replay) and asserts a second recovery still converges — replay is
idempotent.
"""

import pytest

from repro.errors import DocumentNotFoundError, StorageError
from repro.faults import FAULTS, KNOWN_FAILPOINTS, SimulatedCrash
from repro.storage import Database
from repro.storage.fsck import fsck
from repro.workloads.dblp import generate_dblp_xml
from repro.xmltree.parser import parse_forest

from tests.conftest import FIG1A

# Big enough that a flush batch spans several pages, so mid-apply
# failpoints (skip > 0) have later page writes to tear.
SECOND_DOC = "<data>" + "".join(
    f"<book><title>T{i}</title>"
    f"<author><name>A{i}</name></author>"
    f"<publisher><name>P{i}</name></publisher></book>"
    for i in range(40)
) + "</data>"


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.reset()
    yield
    FAULTS.reset()


def _canonical(source: str) -> str:
    return parse_forest(source).canonical()


def _commit_baseline(path: str) -> str:
    with Database(path) as db:
        db.store_document("committed", FIG1A)
    return _canonical(FIG1A)


def _store_under_fault(path: str, failpoint: str, action: str, skip: int = 0) -> bool:
    """Store a second document with one failpoint armed.

    Returns True when the fault fired (crash or coded error), False
    when the armed site was never hit by this operation.
    """
    db = Database(path)
    try:
        with FAULTS.armed(failpoint, action=action, skip=skip) as armed:
            try:
                db.store_document("inflight", SECOND_DOC)
                db.close()
                return armed.fired > 0
            except SimulatedCrash:
                db.abandon()
                return True
            except StorageError:
                # Injected "raise" fault: the app dies on the error.
                db.abandon()
                return True
    except SimulatedCrash:
        # Crash during Database.__init__ (e.g. replay of a prior batch).
        return True


def _assert_recovered(path: str, expected_committed: str) -> None:
    with Database(path) as db:
        names = db.document_names()
        assert "committed" in names, "a committed document vanished"
        assert db.load_forest("committed").canonical() == expected_committed
        # The in-flight document is all-or-nothing.
        if "inflight" in names:
            assert db.load_forest("inflight").canonical() == _canonical(SECOND_DOC)
        else:
            with pytest.raises(DocumentNotFoundError):
                db.describe("inflight")
    report = fsck(path)
    assert report.ok, f"fsck after recovery: {report.pretty()}"


@pytest.mark.parametrize("failpoint", KNOWN_FAILPOINTS)
@pytest.mark.parametrize("action", ["kill", "truncate", "raise"])
def test_crash_matrix_store(tmp_path, failpoint, action):
    path = str(tmp_path / "crash.db")
    expected = _commit_baseline(path)
    _store_under_fault(path, failpoint, action)
    _assert_recovered(path, expected)


@pytest.mark.parametrize("skip", [1, 3])
def test_crash_mid_apply_leaves_replayable_journal(tmp_path, skip):
    # Tear the in-place apply partway through the batch: the sealed
    # journal must bring every page back on reopen.
    path = str(tmp_path / "midapply.db")
    expected = _commit_baseline(path)
    fired = _store_under_fault(path, "flush.apply", "kill", skip=skip)
    assert fired
    _assert_recovered(path, expected)


@pytest.mark.parametrize("recovery_failpoint", ["pages.pwrite", "pages.fsync", "journal.unlink"])
def test_crash_during_recovery_is_idempotent(tmp_path, recovery_failpoint):
    # Crash once mid-flush (sealed journal on disk), then crash *again*
    # during the replay on reopen; the third open must still converge.
    path = str(tmp_path / "rec.db")
    expected = _commit_baseline(path)
    assert _store_under_fault(path, "flush.apply", "kill", skip=1)

    with FAULTS.armed(recovery_failpoint, action="kill"):
        with pytest.raises(SimulatedCrash):
            Database(path)
    _assert_recovered(path, expected)


def test_torn_journal_never_applied(tmp_path):
    # A truncate at journal.write leaves a torn journal; the main file
    # was never touched, so recovery quarantines the journal and the
    # committed document is intact.
    import os

    path = str(tmp_path / "torn.db")
    expected = _commit_baseline(path)
    assert _store_under_fault(path, "journal.write", "truncate")
    assert os.path.exists(path + ".journal")
    _assert_recovered(path, expected)
    assert not os.path.exists(path + ".journal")
    assert os.path.exists(path + ".journal.corrupt")


def test_double_open_is_locked(tmp_path):
    from repro.errors import DatabaseLockedError

    path = str(tmp_path / "locked.db")
    with Database(path) as db:
        db.store_document("committed", FIG1A)
        with pytest.raises(DatabaseLockedError) as excinfo:
            Database(path)
        assert excinfo.value.code == "XM520"
    # After a clean close the lock is free again.
    with Database(path) as again:
        assert again.document_names() == ["committed"]


def test_abandon_releases_lock_like_process_death(tmp_path):
    path = str(tmp_path / "abandon.db")
    db = Database(path)
    db.store_document("committed", FIG1A)
    db.abandon()
    with Database(path) as again:
        assert "committed" in again.document_names()


def test_batch_stream_parity_after_recovered_crash(tmp_path):
    # After a crash and recovery, the batch renderer and the streaming
    # renderer must still agree byte for byte.
    import io

    path = str(tmp_path / "parity.db")
    _commit_baseline(path)
    _store_under_fault(path, "flush.apply", "kill", skip=1)
    guard = "CAST MORPH book [ title author [ name ] ]"
    with Database(path) as db:
        batch = db.transform("committed", guard).xml()
        sink = io.StringIO()
        db.stream_transform("committed", guard, sink)
        assert sink.getvalue() == batch


# -- a pool smaller than one document's run ----------------------------------


def test_every_commit_point_is_a_sound_tree(tmp_path, monkeypatch):
    # Eight pool pages against a ~30-page document: the pool has to
    # commit journal batches on its own while the document and the
    # update batch are being written.  None of them may fall between a
    # leaf split and the parent rewrite that completes it.
    import shutil

    from repro.storage.pages import BufferPool
    from repro.storage.update import InsertSubtree

    path = str(tmp_path / "small.db")
    snapshots: list[str] = []
    flush = BufferPool.flush

    def flush_and_copy(pool):
        wrote = bool(pool._dirty)
        flush(pool)
        if wrote:
            snapshots.append(str(tmp_path / f"commit{len(snapshots)}.db"))
            shutil.copyfile(path, snapshots[-1])

    monkeypatch.setattr(BufferPool, "flush", flush_and_copy)
    with Database(path, cache_pages=8) as db:
        db.store_document("dblp", generate_dblp_xml(100))
        stored = len(snapshots)
        db.apply_batch(
            "dblp",
            [
                InsertSubtree((1,), f"<article><title>N{i}</title></article>", 1 + 7 * i)
                for i in range(10)
            ],
        )
    # The run's trim and the final flush, then the batch's own commits.
    assert stored >= 2 and len(snapshots) > stored
    for snapshot in snapshots:
        assert fsck(snapshot).btree_problems == [], snapshot


@pytest.mark.parametrize(
    "failpoint",
    ["journal.write", "journal.fsync", "flush.apply", "pages.pwrite", "pages.fsync"],
)
@pytest.mark.parametrize("skip", [0, 1])
def test_crash_matrix_small_pool_store(tmp_path, failpoint, skip):
    # The same store, killed at (and a little past) each commit-path
    # failpoint: reopen is clean and the document is absent or complete.
    path = str(tmp_path / "small.db")
    expected = _commit_baseline(path)
    source = generate_dblp_xml(100)
    db = Database(path, cache_pages=8)
    with FAULTS.armed(failpoint, action="kill", skip=skip) as armed:
        with pytest.raises(SimulatedCrash):
            db.store_document("dblp", source)
        assert armed.fired
    db.abandon()
    with Database(path) as db:
        assert db.load_forest("committed").canonical() == expected
        if "dblp" in db.document_names():
            assert db.load_forest("dblp").canonical() == _canonical(source)
    report = fsck(path)
    assert report.ok, report.pretty()
