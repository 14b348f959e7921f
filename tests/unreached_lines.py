"""Print each executable line of ``src/mgnt`` that the tier-1 suite never runs.

Runs the suite in this process under ``sys.settrace``, records every line of
``src/mgnt`` it executes, and prints the executable lines it missed, one
``path:line  source`` per line.  Exits 1 if a missed line is not on the
allowlist below, else 0 (or the suite's own exit code, if the suite failed).
Lines run only in a child process (the demos, the train-path import check,
the forked one-step pass of ``rollout.evaluate``) are not seen.  Extra
arguments go to pytest::

    PYTHONPATH=src python tests/unreached_lines.py
    PYTHONPATH=src python tests/unreached_lines.py tests/test_tensor.py

The name keeps pytest from collecting this file.  coverage is not a
dependency, so the executable lines come from the compiled code objects.
"""

from __future__ import annotations

import dis
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "mgnt")

# (file, function) -> (stripped source of the lines tier-1 cannot run, why)
ALLOWED = {
    ("cli.py", "<module>"): (
        ("sys.exit(main())",),
        "runs only when cli.py is executed as __main__; tests call main() directly"),
    ("rollout.py", "_fork_rmse_1"): (
        ("os.close(read_fd)", "status = 1", "out = (True, rmse_1(*args))",
         "except BaseException as exc:", "out = (False, exc)",
         'with os.fdopen(write_fd, "wb") as f:', "f.write(pickle.dumps(out))", "status = 0",
         "os._exit(status)"),
        "run only in the forked child, which this process's sys.settrace does not see"),
    ("tensor.py", "_keep_freed_memory_mapped"): (
        ("except (AttributeError, OSError, TypeError):", "return"),
        "the handler runs only off glibc, where the C library has no mallopt"),
}


def executable_lines(path: str) -> dict[int, str]:
    """{line number: name of the code object that owns it} for every line
    that holds an instruction other than a function's entry bookkeeping."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines: dict[int, str] = {}
    stack = [code]
    while stack:
        co = stack.pop()
        for ins in dis.get_instructions(co):
            if ins.opname not in ("RESUME", "RETURN_GENERATOR", "NOP") \
                    and ins.positions.lineno is not None:
                lines.setdefault(ins.positions.lineno, co.co_name)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_code"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [ROOT])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unexpected = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        for line, owner in sorted(executable_lines(path).items()):
            if (path, line) in hit:
                continue
            text = source[line - 1].strip()
            texts, reason = ALLOWED.get((name, owner), ((), None))
            reason = reason if text in texts else None
            unexpected += reason is None
            print(f"src/mgnt/{name}:{line}  {text}" + (f"  [allowed: {reason}]" if reason else ""))
    print(f"{unexpected} unreached line(s) outside the allowlist")
    if status != 0:
        return int(status)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
