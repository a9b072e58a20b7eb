"""Launch ``repro-msri serve`` for the serve_mixed workload.

Usage::

    python3 perfbench/serve_daemon.py --trace 0|1

Runs the program's own ``run_server`` on an ephemeral port and prints its
``listening on HOST:PORT`` line.  ``stats`` frames with a ``perfbench`` key
are the benchmark's control channel (see :func:`install_control`).  With
``--trace 1`` it first installs the layer wrappers (per-thread CPU clock,
since edits and evaluates run on the executor's threads).  SIGTERM drains
the daemon; so does
end-of-file on stdin, which is how the daemon follows its client out when
the client dies without stopping it.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time


def install_control(trace: bool) -> None:
    """Answer the benchmark's ``stats`` frames that carry a ``perfbench`` key.

    ``"kernel"`` runs the calibration kernel in the daemon and returns its
    time, so the client can follow the daemon's host speed as well as its
    own.  With tracing, ``"open"`` resets every probe and ``"close"``
    returns what they saw since; kernel runs are left out of the window's
    CPU time.
    """
    from harness import HostSpeed
    from repro.serve import server

    window: dict = {}
    if trace:
        from layers import LayerProbe
        from repro.obs import core as obs

        obs.set_enabled(True)
        probe = LayerProbe(clock=time.thread_time)
        probe.install()
        probe.install_queue_probe()
    dispatch = server.TimingServer._dispatch

    async def control(self, op, frame, owned):
        command = frame.get("perfbench") if op == "stats" else None
        if command == "kernel":
            t0 = time.thread_time()
            kernel_s = HostSpeed().sample()
            window["kernel_cpu"] = window.get("kernel_cpu", 0.0) + time.thread_time() - t0
            return {"kernel_s": kernel_s}
        if command == "open" and trace:
            probe.reset()
            obs.reset()
            window.update(cpu=time.process_time(), kernel_cpu=0.0)
            return {}
        if command == "close" and trace:
            return {"perfbench": {
                "probe": probe.snapshot(),
                "obs": obs.snapshot()["counters"],
                "cpu_s": time.process_time() - window["cpu"] - window["kernel_cpu"],
            }}
        return await dispatch(self, op, frame, owned)

    server.TimingServer._dispatch = control


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    install_control(bool(args.trace))

    def follow_client() -> None:
        sys.stdin.buffer.read()
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=follow_client, daemon=True).start()
    from repro.serve.server import ServeConfig, run_server

    run_server(ServeConfig(host="127.0.0.1", port=0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
