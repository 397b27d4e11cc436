"""Start the children of a benchmark run, one at a time, and report how each ran.

``run.py`` starts this file as ``python -S spawner.py`` and keeps it for the
whole run of a workload.  Each line on stdin is one request, its fields joined by tabs:

    <timeout_s> <stdout file> <stderr file> <argv ...>

The spawner forks and execs the child with stdin from /dev/null and its stdout
and stderr in the two files, waits for it, and writes one line on stdout:

    <exit code> <wall_ns> <cpu_ns> <maxrss_kb> <timed_out 0|1>

A child that outlives its timeout is killed.  On SIGTERM the spawner kills its
child, waits for it and exits.  It ends when stdin closes.

Why a separate process: a child's ``ru_maxrss`` starts from the resident size
of the process that forked it.  The benchmark process is larger than a small
``python -m tatek`` run, so its children would all report its size; this
process imports almost nothing and is smaller than any of them.
"""

import os
import signal
import sys
import time

child = 0
timed_out = False


def on_alarm(signum, frame):
    global timed_out
    if child:
        timed_out = True
        os.kill(child, signal.SIGKILL)


def on_term(signum, frame):
    if child:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    os._exit(143)


def exec_child(argv, out_path, err_path):
    """In the forked child: redirect, then exec; never returns."""
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, [])
        stdin = os.open(os.devnull, os.O_RDONLY)
        out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for fd, target in ((stdin, 0), (out, 1), (err, 2)):
            os.dup2(fd, target)
            os.close(fd)
        os.execv(argv[0], argv)
    finally:
        os._exit(127)


def main():
    global child, timed_out
    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    for line in sys.stdin:
        timeout, out_path, err_path, *argv = line.rstrip("\n").split("\t")
        timed_out = False
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGTERM])
        start = time.perf_counter_ns()
        pid = os.fork()
        if pid == 0:
            exec_child(argv, out_path, err_path)
        child = pid
        signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGTERM])
        signal.alarm(int(float(timeout)))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter_ns() - start
        signal.alarm(0)
        child = 0
        cpu = int((usage.ru_utime + usage.ru_stime) * 1e9)
        code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(f"{code} {wall} {cpu} {usage.ru_maxrss} {int(timed_out)}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
