"""Every law, mode and format keeps its report bytes.

The corpus under ``tests/golden/`` holds the exact output of one small
``predict``, ``simulate`` or ``tail-check`` command per cell, recorded by
``tests/golden/record.py``.  A change that moves report bytes fails here,
and a deliberate move shows as a diff of those files.
"""

from __future__ import annotations

import pytest

from golden.record import CELLS, HERE, run_cell


@pytest.mark.parametrize("name", CELLS)
def test_each_cell_keeps_its_recorded_bytes(name: str) -> None:
    code, text = run_cell(CELLS[name])
    assert code == 0, text
    assert text == (HERE / name).read_text()
