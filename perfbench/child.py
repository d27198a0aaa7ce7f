"""One benchmark invocation, in a fresh process.

    python3 perfbench/child.py cli <probe> <bckcodes CLI arguments...> <summary out>
    python3 perfbench/child.py codes <probe> <lift input> <result out> <summary out>
    python3 perfbench/child.py setup python <summary out>

The first line on stderr marks the end of set-up: the CLOCK_MONOTONIC
time at which `import bckcodes` returned, and the backend it chose.
With probe `trace` the tracer is installed and its summary is written
to the summary file when the workload ends; with probe `python` or
`numpy` that reference loop of `reference.py` is sampled throughout
instead, and its counts and times are written there.  The `cli` mode runs the CLI entry point with
its output on this process's stdout; the `codes` mode makes the codes-7
public API calls and writes what the checks need to the result file;
the `setup` mode only samples the reference loop after the import.
"""

import json
import sys
import time

import bckcodes

sys.stderr.write(f"perfbench-setup {time.monotonic()!r} {bckcodes.BACKEND_NAME}\n")
sys.stderr.flush()


def run_codes(lift_path: str, result_path: str) -> int:
    from bckcodes import BlockCode, enumerate_triangular_codes, lift_code, verify_roundtrip

    with open(lift_path, encoding="utf-8") as fh:
        sources = [line.split() for line in fh.read().splitlines() if line]

    trips = []
    for code in enumerate_triangular_codes(7):
        report = verify_roundtrip(code)
        packed = "".join("".join(map(str, w.bits)) for w in code.words)
        trips.append((packed, report.exact, report.self_describing))
    lifts = [list(lift_code(BlockCode.from_strings(words)).lifted_code.strings()) for words in sources]

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"roundtrips": trips, "lifts": lifts}, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, kind, rest, summary_out = argv[0], argv[1], argv[2:-1], argv[-1]
    if kind == "trace":
        from tracing import Tracer

        probe = Tracer()
        probe.install()
    else:
        from reference import Sampler

        probe = Sampler(kind)
        probe.arm()

    code = 0
    if mode == "cli":
        from bckcodes import cli

        code = cli.main(rest)
    elif mode == "codes":
        code = run_codes(*rest)
    end = time.monotonic()

    summary = probe.summary() if kind == "trace" else probe.disarm()
    summary["end"] = end
    with open(summary_out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
