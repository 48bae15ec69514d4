import gc

import pytest


@pytest.fixture(scope="session")
def ray_session():
    """Single Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            log_to_driver=False,
        )
    yield
    ray.shutdown()


@pytest.fixture(autouse=True)
def _collect_ray_garbage():
    """Start every test on the session's full CPUs.  A finished Ray Data
    pipeline can stay referenced from a reference cycle, and with it its
    actor pool or a blocked read task, each holding CPUs until the
    cyclic collector gets round to it — which on a large heap can be
    hundreds of tests later.  A later fixed-size actor pool that needs
    the whole session then waits forever (``perplexity_buckets`` over a
    repartitioned input with 0.5 CPU held never finishes).  Collecting
    after each test frees them."""
    yield
    import ray

    if ray.is_initialized():
        gc.collect()
