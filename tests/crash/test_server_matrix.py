"""Crash-at-every-protocol-step, extended to delegate-server mode.

Kill the last delegate at each service-loop step (admission, apply,
flush entry, both sides of the journal commit mark, close), then run
recovery + fsck on the surviving PFS. Every cell must come back with the
committed prefix byte-identical to the analytic image — the prior
epoch's for steps that land before the final commit, the full image
after it — a clean fsck, and zero bytes flagged ``data_at_risk`` (the
journaled path never leaves committed data exposed).
"""

from __future__ import annotations

import pytest

from repro.crash.harness import (
    SERVER_ROLLBACK_STEPS,
    SERVER_STEPS,
    run_cell,
)
from repro.ioserver import expected_image, generate_trace

NCLIENTS = 6
SEED = 7

#: Every seed-7 cell's summary line, as the server crash matrix prints it.
SUMMARIES = {
    "srv-admit": "crash@srv-admit    server journal=epoch: ok — epoch 1 recovered, 1728b replayed, 0 uncommitted + 0 torn discarded, fsck clean",
    "srv-apply": "crash@srv-apply    server journal=epoch: ok — epoch 1 recovered, 1728b replayed, 0 uncommitted + 0 torn discarded, fsck clean",
    "srv-flush": "crash@srv-flush    server journal=epoch: ok — epoch 1 recovered, 1728b replayed, 0 uncommitted + 0 torn discarded, fsck clean",
    "pre-commit": "crash@pre-commit   server journal=epoch: ok — epoch 1 recovered, 1728b replayed, 27 uncommitted + 0 torn discarded, fsck clean",
    "post-commit": "crash@post-commit  server journal=epoch: ok — epoch 2 recovered, 3456b replayed, 0 uncommitted + 0 torn discarded, fsck clean",
    "srv-close": "crash@srv-close    server journal=epoch: ok — epoch 2 recovered, 3456b replayed, 0 uncommitted + 0 torn discarded, fsck clean",
}


@pytest.fixture(scope="module")
def trace():
    # Dense (fsck cannot tell a sparse hole from an untracked byte) and
    # write-only (a read phase would push every srv-* step's last hit
    # past the final commit, degenerating the rollback cells).
    return generate_trace(
        SEED, NCLIENTS, epochs=2, writes_per_epoch=3,
        reads_per_client=0, dense=True,
    )


@pytest.mark.parametrize("step", SERVER_STEPS)
def test_server_crash_cell(step, trace):
    cell = run_cell("server-crash", step, nclients=NCLIENTS, seed=SEED, trace=trace)
    assert cell.aborted, f"{step}: job must abort on the delegate crash"
    assert cell.ok, cell.summary()
    assert cell.summary() == SUMMARIES[step]
    assert cell.fsck is not None and cell.fsck.clean
    assert cell.fsck.torn_bytes == 0 and cell.fsck.untracked_bytes == 0
    if step in SERVER_ROLLBACK_STEPS:
        # The last hit lands mid-final-epoch: recovery rolls back to the
        # previous commit and the epoch-1 bytes alone survive.
        assert cell.recovery.committed_epoch == 1
        assert cell.fsck.eof == len(expected_image(trace, epochs=1))
    else:
        assert cell.recovery.committed_epoch == 2
        assert cell.fsck.eof == len(expected_image(trace))


def test_counting_run_aims_at_a_real_step(trace):
    # Each cell's crash_after comes from a crash-free counting run; a
    # zero count would mean the armed run never fires. Guard the aim.
    cell = run_cell("server-crash", "srv-apply", nclients=NCLIENTS, seed=SEED,
                    trace=trace)
    assert cell.crash_after >= 1


def test_unknown_victim_rejected(trace):
    with pytest.raises(ValueError):
        run_cell(
            "server-crash", "srv-apply", nclients=NCLIENTS, seed=SEED,
            trace=trace, victim=1,
        )
