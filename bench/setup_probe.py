"""Time dmirs set-up in a fresh process.

    python3 setup_probe.py SRC_DIR CMD... [--next CMD...]

Measures from just before `import dmirs` to the end of the given dmirs
commands (a minimal op of the workload: it parses the scenario and pays the
first op's one-time costs).  The last line printed is the wall seconds and
the CPU seconds scaled to the reference speed (see speed.py).  Only `sys`,
`time` and `speed` are imported before the clock starts.
"""

import sys
import time

from speed import SpeedSampler


def main():
    src, words = sys.argv[1], sys.argv[2:]
    commands = [[]]
    for word in words:
        if word == "--next":
            commands.append([])
        else:
            commands[-1].append(word)
    with SpeedSampler() as sampler:
        start, cpu_start = time.perf_counter(), time.thread_time()
        sys.path.insert(0, src)
        import dmirs.cli

        for argv in commands:
            rc = dmirs.cli.main(argv)
            if rc != 0:
                sys.exit(f"setup command {argv} exited {rc}")
        elapsed, cpu_end = time.perf_counter() - start, time.thread_time()
    cpu = cpu_end - cpu_start - sampler.spent
    print(repr(elapsed), repr(cpu * sampler.scale(cpu_start, cpu_end)))


if __name__ == "__main__":
    main()
