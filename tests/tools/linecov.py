"""List the statements of src/fhplab that a pytest run never executes.

    PYTHONPATH=src python tests/tools/linecov.py -q [more pytest arguments]

A stdlib line tracer for dead-code checks, where `coverage` is not
installed.  It runs pytest in this process under sys.settrace, and puts a
generated sitecustomize.py first on PYTHONPATH so that every CLI
subprocess the tests start traces itself too and appends its lines to a
shared log at exit.  A statement is a line that holds bytecode; each run
of missed statements with no executed one between them prints as a
range.  Tracing makes the code several times slower, so the tests marked
`wallclock` (a CLI subprocess under a wall-clock timeout) are deselected.
"""

import atexit
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src", "fhplab") + os.sep


def start(log=None):
    """Record (file, line) for every line run in SRC; at exit, append them to log."""
    hit = set()

    def line(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(SRC) else None

    def dump():
        with open(log, "a") as fh:
            fh.writelines(f"{f}\t{n}\n" for f, n in hit)

    sys.settrace(call)
    if log:
        atexit.register(dump)
    return hit


def statements(path):
    """The lines of path that hold bytecode, from every nested code object."""
    with open(path) as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)  # 0: the module's entry
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def missed_ranges(path, ran):
    """[first, last] of each run of statements not in ran."""
    runs, after_miss = [], False
    for n in sorted(statements(path)):
        if n not in ran and after_miss:
            runs[-1][1] = n
        elif n not in ran:
            runs.append([n, n])
        after_miss = n not in ran
    return runs


def main(argv):
    import tempfile

    import pytest

    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "lines.log")
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as fh:
            fh.write(f"import sys\nsys.path.insert(0, {HERE!r})\n"
                     f"import linecov\nlinecov.start({log!r})\n")
        path = [tmp, os.environ.get("PYTHONPATH")]
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
        hit = start()
        status = pytest.main(["-m", "not wallclock", *argv])
        sys.settrace(None)
        if os.path.exists(log):
            with open(log) as fh:
                hit.update((f, int(n)) for f, n in (row.split("\t") for row in fh))
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            runs = missed_ranges(SRC + name, {n for f, n in hit if f == SRC + name})
            text = ", ".join(f"{a}-{b}" if a < b else f"{a}" for a, b in runs)
            print(f"src/fhplab/{name}: {text or '-'}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
