"""The crash matrix, extended to the incremental-update path.

Same protocol as ``test_crash_matrix``, but the faulted operation is an
``apply_batch`` of subtree edits instead of a ``store_document``: for
every known failpoint × fault flavour, a crash mid-batch must recover —
via journal replay on reopen — to *exactly* the pre-batch or post-batch
document, never a hybrid, and the store must be fsck-clean.  The
update-specific failpoints (``update.stage``, fired before each op is
staged, and ``update.commit``, fired between staging and the journaled
flush) sit before the commit point, so with those armed recovery must
always land on the pre-batch state; a ``raise``-flavoured fault there
additionally must leave the *live handle* usable (staged pages rolled
back, next batch succeeds).
"""

import pytest

from repro.engine.interpreter import Interpreter
from repro.errors import StorageError
from repro.faults import FAULTS, KNOWN_FAILPOINTS, SimulatedCrash
from repro.storage import Database, DeleteSubtree, InsertSubtree, ReplaceSubtree
from repro.storage import reference_apply
from repro.storage.fsck import fsck
from repro.xmltree.parser import parse_forest

from tests.engine.oracle import reference_render

# Large enough that the update batch dirties several pages, giving the
# mid-flush failpoints later writes to tear.
BASELINE_DOC = "<data>" + "".join(
    f"<book><title>T{i}</title>"
    f"<author><name>A{i}</name></author></book>"
    for i in range(30)
) + "</data>"

# One batch exercising all three op kinds, including a front insert
# (sibling renumbering) and a structural replace (type changes).  The
# inserted subtree carries enough text to dirty several pages, so
# mid-flush failpoints with skip > 0 have later page writes to tear.
BATCH = [
    InsertSubtree(
        "1",
        "<shelf>"
        + "".join(f"<book><title>S{i} {'pad ' * 40}</title></book>" for i in range(12))
        + "</shelf>",
        1,
    ),
    DeleteSubtree("1.5"),
    ReplaceSubtree("1.3", "<pamphlet><leaf>p</leaf></pamphlet>"),
]


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.reset()
    yield
    FAULTS.reset()


def _pre_canonical():
    return parse_forest(BASELINE_DOC).canonical()


def _post_canonical():
    return reference_apply(parse_forest(BASELINE_DOC), list(BATCH)).canonical()


def _commit_baseline(path: str) -> None:
    with Database(path) as db:
        db.store_document("doc", BASELINE_DOC)


def _update_under_fault(path: str, failpoint: str, action: str, skip: int = 0) -> bool:
    """Apply the edit batch with one failpoint armed.

    Returns True when the fault fired (crash or coded error), False
    when the armed site was never hit by this operation.
    """
    db = Database(path)
    try:
        with FAULTS.armed(failpoint, action=action, skip=skip) as armed:
            try:
                db.apply_batch("doc", list(BATCH))
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
        # Crash during Database.__init__ (replay of a prior batch).
        return True


def _assert_recovered(path: str) -> None:
    """Reopen and require exactly the pre- or post-batch document."""
    with Database(path) as db:
        state = db.load_forest("doc").canonical()
        assert state in (_pre_canonical(), _post_canonical()), (
            "recovered document is neither the pre-batch nor the "
            "post-batch state"
        )
        # Whatever state won, the document must still evaluate.
        result = db.transform("doc", "MORPH book [ title ]")
        assert result.forest.roots
    report = fsck(path)
    assert report.ok, f"fsck after recovery: {report.pretty()}"


@pytest.mark.parametrize("failpoint", KNOWN_FAILPOINTS)
@pytest.mark.parametrize("action", ["kill", "truncate", "raise"])
def test_update_crash_matrix(tmp_path, failpoint, action):
    path = str(tmp_path / "crash.db")
    _commit_baseline(path)
    _update_under_fault(path, failpoint, action)
    _assert_recovered(path)


@pytest.mark.parametrize("skip", [1, 3])
def test_crash_mid_update_flush_replays(tmp_path, skip):
    # Tear the in-place page apply partway through the update's commit
    # flush: the sealed journal must bring the batch back on reopen.
    path = str(tmp_path / "midapply.db")
    _commit_baseline(path)
    fired = _update_under_fault(path, "flush.apply", "kill", skip=skip)
    assert fired
    with Database(path) as db:
        assert db.load_forest("doc").canonical() == _post_canonical()
    assert fsck(path).ok


@pytest.mark.parametrize("failpoint", ["update.stage", "update.commit"])
@pytest.mark.parametrize("action", ["kill", "raise"])
def test_pre_commit_faults_preserve_old_state(tmp_path, failpoint, action):
    # Both update failpoints fire before the journaled flush, so the
    # disk never sees the batch: recovery must land on the pre state.
    path = str(tmp_path / "pre.db")
    _commit_baseline(path)
    assert _update_under_fault(path, failpoint, action)
    with Database(path) as db:
        assert db.load_forest("doc").canonical() == _pre_canonical()
    assert fsck(path).ok


@pytest.mark.parametrize("failpoint", ["update.stage", "update.commit"])
def test_injected_fault_rolls_back_and_handle_survives(tmp_path, failpoint):
    # A "raise"-flavoured fault is an ordinary error, not process death:
    # the handle must roll the staged pages back and keep working.
    from repro.errors import InjectedFaultError

    path = str(tmp_path / "live.db")
    _commit_baseline(path)
    with Database(path) as db:
        with FAULTS.armed(failpoint, action="raise"):
            with pytest.raises(InjectedFaultError):
                db.apply_batch("doc", list(BATCH))
        assert db.load_forest("doc").canonical() == _pre_canonical()
        # Staged state is gone: the same batch now applies cleanly.
        db.apply_batch("doc", list(BATCH))
        assert db.load_forest("doc").canonical() == _post_canonical()
    assert fsck(path).ok


def test_second_op_staging_fault_discards_first_op(tmp_path):
    # Arm update.stage with skip=1: the first op stages, the second op's
    # staging raises.  Rollback must discard the first op too.
    from repro.errors import InjectedFaultError

    path = str(tmp_path / "partial.db")
    _commit_baseline(path)
    with Database(path) as db:
        with FAULTS.armed("update.stage", action="raise", skip=1):
            with pytest.raises(InjectedFaultError):
                db.apply_batch("doc", list(BATCH))
        assert db.load_forest("doc").canonical() == _pre_canonical()
    assert fsck(path).ok


def test_crash_during_update_recovery_is_idempotent(tmp_path):
    # Crash mid-flush (sealed journal), then crash again during the
    # replay on reopen; the third open must still converge on post.
    path = str(tmp_path / "rec.db")
    _commit_baseline(path)
    assert _update_under_fault(path, "flush.apply", "kill", skip=1)
    with FAULTS.armed("pages.pwrite", action="kill"):
        with pytest.raises(SimulatedCrash):
            Database(path)
    _assert_recovered(path)


def test_fsck_repair_after_crashed_update(tmp_path, capsys):
    # The operator path: a store crashed mid-update must come back
    # clean through `xmorph fsck --repair` (which replays the journal),
    # matching what reopening through Database would do.
    from repro.cli import main

    path = str(tmp_path / "repair.db")
    _commit_baseline(path)
    assert _update_under_fault(path, "flush.apply", "kill", skip=1)
    exit_code = main(["fsck", "--db", path, "--repair"])
    assert exit_code == 0, capsys.readouterr().out
    with Database(path) as db:
        state = db.load_forest("doc").canonical()
        assert state in (_pre_canonical(), _post_canonical())


def test_rendered_output_agrees_after_recovered_update_crash(tmp_path):
    # After crash + recovery, the compiled emitter and the oracle
    # renderer must still agree on the recovered document.
    path = str(tmp_path / "parity.db")
    _commit_baseline(path)
    _update_under_fault(path, "flush.apply", "kill", skip=2)
    guard = "MORPH book [ title ]"
    with Database(path) as db:
        compiled = db.transform("doc", guard).forest.canonical()
        index = db.index("doc")
        shape = Interpreter(index).compile(guard).target_shape
        reference = reference_render(shape, index).forest.canonical()
    assert compiled == reference
