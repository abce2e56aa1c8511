"""Every row of the CLI case table, run through `python -m scorelang`, and
the runner's own fault lines."""

import errno
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from cli_cases import CASES, SCORELANG, Case, run_case, source_env


@pytest.fixture(scope="module")
def faults(request):
    """The faults to come of each row this session runs, by name, in
    collection order.  A row runs in its own process and directory, so two
    run at a time, which halves the table's wall time on two cores; rows
    not started when the module ends are dropped.  The rows may write
    scorelang's bytecode cache, as Python does by default, so that only
    the first compiles it even where the environment turns that off."""
    selected = [
        item.callspec.params["case"]
        for item in request.session.items
        if getattr(item, "originalname", None) == "test_cli_case"
    ]
    with pytest.MonkeyPatch.context() as patch, ThreadPoolExecutor(2) as pool:
        patch.setenv("PYTHONPATH", source_env()["PYTHONPATH"])
        patch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        yield {case.name: pool.submit(run_case, case, SCORELANG) for case in selected}
        pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_case(case, faults):
    found = faults[case.name].result()
    assert not found, "\n".join(found)


def test_an_os_error_is_a_fault_line():
    # a file in a subdirectory the row never makes cannot be written, and
    # the row fails with a line naming the step, not with the error
    case = Case("missing-subdirectory", "", {"missing/p.score": "SKIP\n"})
    found = run_case(case, [sys.executable, "-c", "pass"])
    assert found == [f"FileNotFoundError ENOENT in writing its files: {os.strerror(errno.ENOENT)}"]
