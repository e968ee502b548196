"""Fresh-interpreter CLI probe: times `import tiltcert.cli` and, given
arguments, one `main(ARGS)`, with the `verify_all` call inside it timed
apart so that main's own share can be taken out.  Prints one JSON line.

    python3 bench/cli_probe.py [ARGS...]   (with src/ on PYTHONPATH)
"""

import contextlib
import io
import json
import sys
import time

if __name__ == "__main__":
    clock = time.perf_counter_ns
    start = clock()
    from tiltcert import cli

    imported = clock()
    inner = []
    verify_all = cli.verify_all

    def timed_verify_all(*args, **kwargs):
        begin = clock()
        try:
            return verify_all(*args, **kwargs)
        finally:
            inner.append(clock() - begin)

    cli.verify_all = timed_verify_all
    main_ns = 0
    code = None
    if sys.argv[1:]:
        with contextlib.redirect_stdout(io.StringIO()):
            begin = clock()
            code = cli.main(sys.argv[1:])
            main_ns = clock() - begin
    print(
        json.dumps(
            {
                "import_s": (imported - start) / 1e9,
                "main_s": main_ns / 1e9,
                "inner_s": sum(inner) / 1e9,
                "code": code,
            }
        )
    )
