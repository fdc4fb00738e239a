import pytest

from crossg2.checks import Workspace
from crossg2.linalg import Subspace


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


@pytest.fixture
def scalar_route(monkeypatch):
    """The switch of linalg's one integer dispatch: once called, every
    Subspace's `basis` is its Scalar rows and its `denominator` None, and
    membership, coordinates and every caller reading the basis take the
    Scalar route, the oracle of the integer one."""
    def switch():
        monkeypatch.setattr(Subspace, "basis", property(lambda space: space.rows))
        monkeypatch.setattr(Subspace, "denominator", None)
    return switch
