"""Start the benchmark's program processes from a small interpreter.

    python3 -S perfbench/spawner.py

A child's peak RSS (ru_maxrss) counts the memory of the process it was
forked from, so processes started by the harness itself would all report
at least the harness's RSS.  This process stays at a few MB.  It reads one
request per stdin line, `OUT\\0ARGV0\\0ARGV1...`, runs the program with
stdout to OUT (stdin and stderr on /dev/null), waits for it and answers
`WALL_SECONDS EXIT_STATUS MAXRSS_KB` on one stdout line.  It exits at the
end of stdin; on SIGTERM it kills the running program first.
"""

import os
import signal
import sys
import time

running = []


def stop(signum, frame):
    for pid in running:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    os._exit(1)


def main():
    signal.signal(signal.SIGTERM, stop)
    devnull = os.open(os.devnull, os.O_RDWR)
    for line in sys.stdin.buffer:
        out_path, *argv = line.rstrip(b"\n").split(b"\0")
        out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [
            (os.POSIX_SPAWN_DUP2, devnull, 0),
            (os.POSIX_SPAWN_DUP2, out, 1),
            (os.POSIX_SPAWN_DUP2, devnull, 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        running.append(pid)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        running.clear()
        os.close(out)
        sys.stdout.write(f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
