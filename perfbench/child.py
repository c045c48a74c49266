"""One fresh benchmark process: import ``truncsym.cli`` and run one command.

    child.py RESULT_JSON setup
    child.py RESULT_JSON run -- CLI_ARG...
    child.py RESULT_JSON trace SPANS_NPZ -- CLI_ARG...

``setup`` stops after the import.  ``run`` invokes the CLI as the
``truncsym`` console script would.  ``trace`` first wraps the package's
public functions (see ``tracer.py``) and saves the spans afterwards.
The result file gets the ``time.monotonic`` stamps taken after the import
(``t_ready``) and after the command returned (``t_done``), the command's
exit code and the process's peak resident set size.  A command that raises
writes no result file.
"""

import sys
import time

import truncsym.cli

t_ready = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _run_cli(argv: list[str]) -> int:
    try:
        truncsym.cli.main(args=argv, prog_name="truncsym")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


def main() -> None:
    result_path, mode = sys.argv[1], sys.argv[2]
    rest = sys.argv[3:]
    result = {"t_ready": t_ready, "truncsym_file": truncsym.__file__}
    if mode == "setup":
        result["exit_code"] = 0
    else:
        argv = rest[rest.index("--") + 1:]
        tracer = None
        if mode == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracer as tracing

            tracer = tracing.Tracer()
            modules = [m for n, m in sorted(sys.modules.items())
                       if n == "truncsym" or n.startswith("truncsym.")]
            tracing.install(tracer, modules)
            t_start = time.monotonic()
        else:
            t_start = t_ready
        result["exit_code"] = _run_cli(argv)
        result["t_start"] = t_start
        result["t_done"] = time.monotonic()
        if tracer is not None:
            tracer.save(rest[0])
            result["counters"] = dict(tracer.counters)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    sys.exit(result["exit_code"])


if __name__ == "__main__":
    main()
