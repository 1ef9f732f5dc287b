"""Run one frobinom CLI call the way the console script does.

usage: python3 cli_launch.py META TRACE ARGV...

Calls frobinom.cli.main(ARGV) and exits with its code.  Before exiting it
writes META, a JSON object with the clock reading at entry into main, this
process's peak RSS and, when TRACE is 1, the spans recorded by wrappers
installed before main runs.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import peak_rss_mb  # noqa: E402


def launch():
    meta_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    from frobinom import cli

    main_start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(meta_path, "w") as meta:
            json.dump({"main_start": main_start, "peak_rss_mb": peak_rss_mb(),
                       "spans": tracer.spans if tracer else []}, meta)
    return code


if __name__ == "__main__":
    sys.exit(launch())
