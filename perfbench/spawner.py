"""Start the benchmark's child processes from a process that stays small.

A child's ru_maxrss includes the memory of the process that started it: at
exec the kernel records the high-water mark of the address space being
replaced, which a forked or vforked child shares or copies.  run.py grows
as it holds and checks outputs, so its children would report its memory.
This process holds nothing, so every child reports its own peak.

Usage: python spawner.py <fd>, where <fd> is one end of an AF_UNIX
SOCK_SEQPACKET socket pair.  Each request is a JSON argv list with two file
descriptors attached, the child's stdout and stderr.  The replies are
{"pid"} once the child runs, then {"code", "wall", "cpu", "rss_mb"} once it
is reaped.  An empty request ends the loop.
"""

import json
import os
import socket
import subprocess
import sys
import time


def main(fd: int) -> int:
    sock = socket.socket(fileno=fd)
    while True:
        request, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not request:
            return 0
        t0 = time.perf_counter()
        proc = subprocess.Popen(json.loads(request), stdin=subprocess.DEVNULL,
                                stdout=fds[0], stderr=fds[1])
        for child_fd in fds:
            os.close(child_fd)
        sock.send(json.dumps({"pid": proc.pid}).encode())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({"code": proc.returncode, "wall": wall,
                              "cpu": usage.ru_utime + usage.ru_stime,
                              "rss_mb": usage.ru_maxrss / 1024}).encode())


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
