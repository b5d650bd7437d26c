"""The cell checker bites: every seeded defect turns a passing cell red.

:func:`repro.crash.harness.check_cell` is a pure function of the evidence
(file image, oracle image, allowed-loss window, fsck report, counters,
abort cause, dead set), so each defect is fed to it directly, without a
simulation. Each column's clean evidence must pass first — a checker that
fails everything would otherwise pass this test.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.crash import COLUMNS, FsckReport, RecoveryReport
from repro.crash.harness import check_cell

ORACLE = bytes(range(1, 33))
VICTIM = 1
LOSS = (16, 24)  # the survive column's victim region: zeros allowed here


def _clean(column: str) -> dict:
    """Evidence of a cell that holds *column*'s expectation."""
    col = COLUMNS[column]
    loss = LOSS if column == "survive" else (0, 0)
    image = bytearray(ORACLE)
    image[loss[0]:loss[1]] = bytes(loss[1] - loss[0])  # lost, not corrupt
    return dict(
        image=bytes(image),
        oracle=ORACLE,
        loss=loss,
        fsck=FsckReport(
            name="f", committed_epoch=1, eof=len(ORACLE),
            file_size=len(ORACLE), committed_bytes=len(ORACLE),
            lost_bytes=64 if col.expect == "detect" else 0,
        ),
        counters={"tcio.ft.survives": 1} if col.expect == "survive" else {},
        aborted=None if col.expect == "survive" else RuntimeError("crash"),
        dead={VICTIM},
        victim=VICTIM,
        recovery=RecoveryReport(name="f", committed_epoch=1, eof=len(ORACLE)),
    )


def _flip(image: bytes, i: int, value: int) -> bytes:
    return image[:i] + bytes([value]) + image[i + 1:]


#: Seeded defects: (name, the expectations it applies to, evidence edit).
DEFECTS = [
    ("flipped byte", ("recover", "survive"),
     lambda e: {"image": _flip(e["image"], 3, e["image"][3] ^ 0xFF)}),
    ("truncated image", ("recover", "survive"),
     lambda e: {"image": e["image"][:-1]}),
    ("zeroed byte outside the loss window", ("recover", "survive"),
     lambda e: {"image": _flip(e["image"], 2, 0)}),
    ("unclean fsck", ("recover", "survive"),
     lambda e: {"fsck": replace(e["fsck"], torn_bytes=1)}),
    ("data at risk", ("recover",),
     lambda e: {"counters": {"faults.data_at_risk": 8}}),
    ("no survive round", ("survive",),
     lambda e: {"counters": {"tcio.ft.survives": 0}}),
    ("no lost bytes", ("detect",),
     lambda e: {"fsck": replace(e["fsck"], lost_bytes=0)}),
    ("wrong abort state", ("recover", "detect", "survive"),
     lambda e: {"aborted": RuntimeError("crash") if e["aborted"] is None else None}),
    ("extra dead rank", ("recover", "detect", "survive"),
     lambda e: {"dead": {VICTIM, VICTIM + 1}}),
]


@pytest.mark.parametrize("column", sorted(COLUMNS))
def test_every_defect_fails_the_cell(column):
    clean = _clean(column)
    ok, detail = check_cell(column, **clean)
    assert ok, detail
    expect = COLUMNS[column].expect
    applied = 0
    for name, expectations, edit in DEFECTS:
        if expect not in expectations:
            continue
        ok, detail = check_cell(column, **{**clean, **edit(clean)})
        assert ok is False, f"{column}: {name} passed as {detail!r}"
        applied += 1
    assert applied >= 3
