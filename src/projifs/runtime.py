"""Worker count, as recorded by tools that describe the machine of a run.

Every computation in projifs runs on the calling thread; there is no worker
pool.
"""


def worker_count() -> int:
    """Worker threads projifs uses: always one."""
    return 1
