import pytest

from zdt import claims, continuity, fixtures as fx, galois, monad, poset, systems, topology


@pytest.fixture(autouse=True)
def _end_pool_workers():
    # pool workers outlive a run_claim call; ending them after each test
    # keeps workers forked under one test's monkeypatches out of the next
    yield
    claims.close_workers()


@pytest.fixture(autouse=True)
def _pool_from_the_first_cell(monkeypatch):
    # every cell of a jobs > 1 call goes to the pool, so that small inputs
    # test the pool; tests/test_claims.py tests the in-process start
    monkeypatch.setattr(claims, "POOL_AFTER_S", 0)


@pytest.fixture
def patch_closure(monkeypatch):
    """``patch(base, closures)`` makes ``TopologyFamily.closure`` return
    ``closures[mask]`` on the family of ``base`` for each mask it holds.

    The closure and compact tables are cached per (poset, system), so they
    are cleared by the patch, which then reaches every table built under
    it, and again after the test, so that none of those outlives it.
    """

    def clear():
        topology.closure_table.cache_clear()
        monad.compact_index.cache_clear()
        monad.compact_table.cache_clear()

    def patch(base, closures):
        clear()
        real = topology.TopologyFamily.closure

        def patched(family, mask):
            if family.base == base and mask in closures:
                return closures[mask]
            return real(family, mask)

        monkeypatch.setattr(topology.TopologyFamily, "closure", patched)

    yield patch
    clear()


@pytest.fixture
def patch_closed_sets(monkeypatch):
    """``patch(base, dropped)`` takes the masks in ``dropped`` out of
    Γ^Z(base) as ``topology.gamma_subbasis`` returns it, for every system.

    A test builds the tables it wants from the real family before it
    patches.  Whatever is built under the patch may be cached anywhere
    downstream of Γ^Z, so the end of the test clears every cache of the
    package: none of those tables outlives it.
    """

    def patch(base, dropped):
        real = topology.gamma_subbasis

        def patched(P, system):
            family = real(P, system)
            if P != base:
                return family
            kept = [c for c in family.closed if c not in dropped]
            return topology.TopologyFamily(P, family.kind, kept)

        monkeypatch.setattr(topology, "gamma_subbasis", patched)

    yield patch
    for module in (poset, systems, topology, continuity, galois, monad, claims):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture
def chain3():
    return fx.chain(3)


@pytest.fixture
def anti2():
    return fx.antichain(2)


@pytest.fixture
def vee():
    return fx.vee()


@pytest.fixture
def wedge():
    return fx.wedge()


@pytest.fixture
def diamond():
    return fx.diamond()


@pytest.fixture
def twin():
    return fx.twin()


@pytest.fixture
def fan3():
    return fx.fan3()


def all_posets(max_n, mode="up_to_iso"):
    from zdt import poset as ps

    for n in range(1, max_n + 1):
        yield from ps.enumerate_posets(n, mode)
