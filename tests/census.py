"""Which flowbridge functions the program's own runs call.

    python tests/census.py OUT

runs, through `flowbridge.cli.main` and with every output under OUT:

* the document of each benchmark workload (`perfbench/workloads.py`,
  seed 1);
* a small document with an ``external`` service, on a topology read
  from a file with ``--topology``;
* ``flowbridge diff`` of two of those runs, and ``flowbridge scenarios``;

all under ``sys.setprofile``. It prints every function of the package,
nested ones included, one ``module:qualname`` per line, with ``+`` when
a run called it and ``-`` when none did. Code objects named ``<...>``
(lambdas and comprehensions, which CPython 3.12+ inlines) are left out,
so every interpreter reports the same names.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path
from types import CodeType, FunctionType

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import flowbridge  # noqa: E402
import ladder  # noqa: E402
import workloads  # noqa: E402
from flowbridge import cli  # noqa: E402

TOPOLOGY = {"layers": [
    {"name": "edge", "nodes": ["robot-1"], "external_protocol": True},
    {"name": "cloud", "nodes": ["cloud-1"]},
]}

EXTERNAL = {
    "name": "external", "duration_s": 1.0, "seed": 1,
    "services": [
        {"name": "gateway", "node": "robot-1", "external": True,
         "advertises": [{"topic": "status", "rate_hz": 10.0, "size": 64}]},
        {"name": "viewer", "node": "cloud-1", "requests": ["status"]},
    ],
}


def functions() -> dict[int, str]:
    """Every function of the flowbridge package, by the id of its code
    object: module functions, the methods and properties of its
    classes, and the functions defined inside those. The package's
    modules hold every one of these code objects, so no id is reused."""
    found: dict[int, str] = {}

    def add(code: CodeType, name: str) -> None:
        if code.co_name.startswith("<"):
            return
        found[id(code)] = name
        for const in code.co_consts:
            if isinstance(const, CodeType):
                add(const, f"{name}.<locals>.{const.co_name}")

    def add_function(fn: object, module: str, path: str) -> None:
        if isinstance(fn, (staticmethod, classmethod)):
            fn = fn.__func__
        fn = inspect.unwrap(fn)  # a test may have wrapped it
        if isinstance(fn, FunctionType) and fn.__code__.co_filename == path:
            add(fn.__code__, f"{module}:{fn.__qualname__}")

    for info in pkgutil.iter_modules(flowbridge.__path__):
        mod = importlib.import_module(f"flowbridge.{info.name}")
        for value in vars(mod).values():
            add_function(value, info.name, mod.__file__)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member in vars(value).values():
                    if isinstance(member, property):
                        for fn in (member.fget, member.fset, member.fdel):
                            add_function(fn, info.name, mod.__file__)
                    else:
                        add_function(member, info.name, mod.__file__)
    return found


def _runs(out: Path) -> None:
    docs = out / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    log = ["--log-level", "warning"]
    for workload in workloads.WORKLOADS:
        doc = docs / f"{workload}.json"
        doc.write_text(ladder.dumps(workloads.scenario_doc(workload, 1, ROOT / "src")))
        _check(cli.main(["run", "--scenario", str(doc), "--out", str(out / workload), *log]))
    topology, external = docs / "topology.json", docs / "external.json"
    topology.write_text(json.dumps(TOPOLOGY))
    external.write_text(json.dumps(EXTERNAL))
    _check(cli.main(["run", "--topology", str(topology), "--scenario", str(external),
                     "--out", str(out / "external"), *log]))
    # two runs that differ, so the diff has lines to report
    _check(cli.main(["diff", str(out / "ladder-steady"), str(out / "ladder-churn"), *log]), 1)
    _check(cli.main(["scenarios", *log]))


def _check(code: int, want: int = 0) -> None:
    if code != want:
        raise RuntimeError(f"exit code {code}, expected {want}")


def census(out: Path) -> dict[str, bool]:
    """Per function name: whether the runs above, written under ``out``,
    called it."""
    names = functions()
    called: set[int] = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(id(frame.f_code))

    sys.setprofile(profile)
    try:
        _runs(out)
    finally:
        sys.setprofile(None)
    return {name: key in called for key, name in names.items()}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):  # the diff and list commands print
        result = census(Path(sys.argv[1]))
    for name in sorted(result):
        print(f"{'+' if result[name] else '-'} {name}")
