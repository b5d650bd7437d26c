"""``repro.crash`` — fail-stop crashes, journaled durability, recovery.

The simulation side lives elsewhere (``sim.engine`` kills processes,
``simmpi`` surfaces dead peers as :class:`~repro.util.errors.RankUnreachable`,
``tcio/file.py`` runs the epoched journal protocol when
``TcioConfig.journal == "epoch"``). This package is the *offline* side:
the journal byte format, the recovery replayer, the fsck classifier, and
the crash-differential harness that ties them together. See
``docs/faults.md``.
"""

from repro.crash.fsck import CrashContext, FsckReport, fsck
from repro.crash.harness import (
    COLUMNS,
    STEPS,
    Column,
    CrashCell,
    CrashMatrixResult,
    aim,
    check_cell,
    crash_free_reference,
    run_cell,
    run_matrix,
)
from repro.crash.journal import (
    JournalRecord,
    commit_name,
    committed_state,
    is_journal_file,
    iter_records,
    rank_journal,
    read_commits,
)
from repro.crash.recover import RecoveryReport, recover

__all__ = [
    "COLUMNS",
    "Column",
    "CrashCell",
    "CrashContext",
    "CrashMatrixResult",
    "FsckReport",
    "JournalRecord",
    "RecoveryReport",
    "STEPS",
    "aim",
    "check_cell",
    "commit_name",
    "committed_state",
    "crash_free_reference",
    "fsck",
    "is_journal_file",
    "iter_records",
    "rank_journal",
    "read_commits",
    "recover",
    "run_cell",
    "run_matrix",
]
