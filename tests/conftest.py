import pytest

from crossg2.checks import Workspace


@pytest.fixture(scope="session")
def ws():
    """Shared check workspace; builds lazily and is reused across modules.
    The fixtures below read their objects from it, so tests share one g2."""
    return Workspace()


@pytest.fixture(scope="session")
def g2(ws):
    return ws.g2


@pytest.fixture(scope="session")
def frame(ws):
    return ws.frame


@pytest.fixture(scope="session")
def v_std(ws):
    return ws.v_std


@pytest.fixture(scope="session")
def tds(ws):
    return ws.tds


@pytest.fixture(scope="session")
def grading_std(ws):
    return ws.grading_std
