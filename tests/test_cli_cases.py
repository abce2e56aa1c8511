"""Every row of the CLI case table, run through `python -m scorelang`."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from cli_cases import CASES, SCORELANG, run_case, source_env


@pytest.fixture(scope="module")
def faults():
    """Each row's faults to come, by name.  A row runs in its own process
    and directory, so two run at a time, which halves the table's wall
    time on two cores; rows not started when the module ends are dropped."""
    with pytest.MonkeyPatch.context() as patch, ThreadPoolExecutor(2) as pool:
        patch.setenv("PYTHONPATH", source_env()["PYTHONPATH"])
        yield {case.name: pool.submit(run_case, case, SCORELANG) for case in CASES}
        pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_case(case, faults):
    found = faults[case.name].result()
    assert not found, "\n".join(found)
