"""The served program, in a process of its own.

``xmorph serve --port`` runs ``serve_forever`` in its own process and
its clients are elsewhere; a client thread sharing the server's
interpreter lock would measure the lock hand-off, not the server.  This
child opens the store read-only, runs the public ``serve_forever`` with
``xmorph serve``'s defaults, prints its port, and then obeys one-word
commands on stdin, answering each with one JSON line::

    trace-on | trace-off | round | stop

``stop`` answers with the process's peak RSS and, if it traced, its
spans (see :meth:`perfbench.trace.Tracer.absorb`).
"""

from __future__ import annotations

import json
import resource
import sys
import threading

from perfbench.trace import Tracer
from repro.serve import serve_forever
from repro.storage.database import Database

#: ``xmorph serve``'s default ``--workers``.
SERVE_WORKERS = 4


def main(path: str) -> int:
    tracer = Tracer(opens_op_at="serve.submit")
    with Database(path, mode="r") as database:
        server = serve_forever(database, port=0, workers=SERVE_WORKERS)
        thread = threading.Thread(target=server.serve_forever, name="perfbench-server")
        thread.start()
        try:
            print(json.dumps({"port": server.server_address[1]}), flush=True)
            for line in sys.stdin:
                command = line.strip()
                if command == "stop":
                    break
                if command == "trace-on":
                    tracer.install()
                elif command == "trace-off":
                    tracer.uninstall()
                elif command == "round":
                    tracer.start_round()
                else:
                    raise ValueError(f"unknown command {command!r}")
                print(json.dumps({"done": command}), flush=True)
        finally:
            tracer.uninstall()
            server.shutdown()
            server.server_close()
            thread.join()
    final = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.export(),
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
