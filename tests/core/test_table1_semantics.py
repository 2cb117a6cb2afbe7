"""Table I conformance: each operation's cache op / comm type / commit type.

The paper's Table I is the design contract for the client; these tests
execute each operation on a live deployment and assert the observed
``(cache_op, comm, commit)`` classification (the client's ``last_class``)
and the observable side effects (DFS traffic or not, commit discipline
used).
"""

import pytest

from tests.core.conftest import make_world


@pytest.fixture
def world():
    return make_world()


class TestTableI:
    def test_create_put_async_indep(self, world):
        mds_before = world.dfs.mds_servers[0].requests_served
        world.run(world.client.create("/app/f"))
        assert world.client.last_class == ("put", "async", "indep")
        # async: returned without the DFS seeing it yet
        assert world.dfs.mds_servers[0].requests_served == mds_before
        assert not world.dfs.namespace.exists("/app/f")

    def test_mkdir_put_async_indep(self, world):
        world.run(world.client.mkdir("/app/d"))
        assert world.client.last_class == ("put", "async", "indep")

    def test_rm_update_delete_async_indep(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.rm("/app/f"))
        assert world.client.last_class == ("update+delete", "async", "indep")
        # update: marked deleted now; delete: removed after commit
        world.quiesce()
        assert world.region.cache.peek("/app/f") is None

    def test_getattr_hit_get_no_comm(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.getattr("/app/f"))
        assert world.client.last_class == ("get", "none", "none")

    def test_getattr_miss_sync_indep(self, world):
        world.dfs.namespace.create("/app/cold", uid=1000, gid=1000)
        world.run(world.client.getattr("/app/cold"))
        assert world.client.last_class == ("get", "sync(miss)", "indep(miss)")

    def test_rmdir_delete_sync_barrier(self, world):
        world.run(world.client.mkdir("/app/d"))
        epochs = world.region.barrier_epochs_completed
        world.run(world.client.rmdir("/app/d"))
        assert world.client.last_class == ("delete", "sync", "barrier")
        assert world.region.barrier_epochs_completed == epochs + 1
        # sync: already gone from the DFS when the call returns
        assert not world.dfs.namespace.exists("/app/d")

    def test_readdir_nocache_sync_barrier(self, world):
        epochs = world.region.barrier_epochs_completed
        world.run(world.client.readdir("/app"))
        assert world.client.last_class == ("none", "sync", "barrier")
        assert world.region.barrier_epochs_completed == epochs + 1

    def test_small_write_cas_async(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, data=b"x" * 100))
        cache_op, comm, _ = world.client.last_class
        assert cache_op == "cas-update"
        assert comm == "async"

    def test_large_write_sync_redirect(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, size=100_000))
        assert world.client.last_class[1] == "sync"

    def test_small_read_single_kv_get(self, world):
        world.run(world.client.create("/app/f"))
        world.run(world.client.write("/app/f", 0, data=b"payload"))
        world.quiesce()
        mds_before = world.dfs.mds_servers[0].requests_served
        data = world.run(world.client.read("/app/f", 0, 7))
        assert data == b"payload"
        # metadata + data in one KV request: zero DFS traffic
        assert world.dfs.mds_servers[0].requests_served == mds_before
        assert world.client.last_class[1] == "none"
