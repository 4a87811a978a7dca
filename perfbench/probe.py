"""Run one `kgmend enhance` command in this process and report what it cost.

    python3 perfbench/probe.py --mode timed --report R.json -- enhance ARGS...
    python3 perfbench/probe.py --mode traced --report R.json --spans S.jsonl -- enhance ARGS...

The command goes through kgmend's own click entry point, exactly as
`kgmend enhance ARGS...` would, with the `src/kgmend` package of this
checkout. Both modes record set-up time on this process's own clock, from
this module's first statement, before `import kgmend`, to `load_graph`
returning. `timed` adds two more cheap caller-side hooks: the time spent
inside `stream.run`, and the duration of every `repair_tuple` call. `traced`
installs the full span tracer instead and writes its spans to S.jsonl. The
report also holds the exit code and the process's peak resident size.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def peak_rss_kb() -> int:
    """This process's own peak resident set size.

    `ru_maxrss` is no use here: Linux carries it over `execve`, so a child
    started by a large parent reports the parent's peak. VmHWM belongs to the
    address space, which `execve` replaces.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", required=True, choices=("timed", "traced"))
    ap.add_argument("--report", required=True)
    ap.add_argument("--spans")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(SRC))
    import kgmend.cli as cli
    import kgmend.repair as repair

    report: dict = {"exit": None, "setup_s": None, "run_s": None, "repair_tuple_s": []}

    load_graph = cli.load_graph

    def stamped_load_graph(*a, **k):
        g = load_graph(*a, **k)
        report["setup_s"] = time.perf_counter() - STARTED
        return g

    cli.load_graph = stamped_load_graph
    tracer = None
    if args.mode == "timed":
        run_stream, repair_tuple = cli.run_stream, repair.repair_tuple
        durations = report["repair_tuple_s"]

        def timed_run_stream(*a, **k):
            t0 = time.perf_counter()
            try:
                return run_stream(*a, **k)
            finally:
                report["run_s"] = time.perf_counter() - t0

        def timed_repair_tuple(*a, **k):
            t0 = time.perf_counter()
            decision = repair_tuple(*a, **k)
            durations.append(time.perf_counter() - t0)
            return decision

        cli.run_stream, repair.repair_tuple = timed_run_stream, timed_repair_tuple
    else:
        sys.path.insert(0, str(BENCH))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    try:
        cli.main(args=argv, prog_name="kgmend")
    except SystemExit as exc:
        report["exit"] = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        if tracer is not None and args.spans:
            tracer.dump(args.spans)
        report["max_rss_kb"] = peak_rss_kb()
        Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return report["exit"] if report["exit"] is not None else 1


if __name__ == "__main__":
    sys.exit(main())
