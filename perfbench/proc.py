"""Child processes with their resource usage."""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
import time


def run_child(argv, tmpdir, env=None, timeout=170.0):
    """Run a process to completion: (exit code, stdout, stderr, wall s, maxrss KB).

    Output goes to files in `tmpdir`, not pipes, so wait4 can reap the child
    and return its resource usage without a full pipe ever blocking it.  A
    child still running after `timeout` seconds is killed.
    """
    with tempfile.TemporaryFile(dir=tmpdir) as out, \
            tempfile.TemporaryFile(dir=tmpdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"), wall, ru.ru_maxrss)
