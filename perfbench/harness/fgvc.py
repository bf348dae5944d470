"""Building `fgvc` and talking to it.

`Service` is one `fgvc --serve` child with the single connection the
benchmark client holds to it (stdin/stdout, or a Unix socket).  The
client is closed-loop: it sends the next line only after reading the
whole reply to the previous one, because the service answers one line
at a time per connection and an open loop would only fill the pipe.
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import time


class BenchError(Exception):
    """The benchmark cannot run: nothing is measured or printed."""


def build(root):
    """Build bin/fgvc.exe from the source tree at [root]; return its path."""
    for need in ("dune-project", os.path.join("bin", "fgvc.ml")):
        if not os.path.isfile(os.path.join(root, need)):
            raise BenchError("no fgv source tree here: %s is missing" % need)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/fgvc.exe"],
            cwd=root,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=840,
        )
    except FileNotFoundError:
        raise BenchError("dune is not on PATH")
    except subprocess.TimeoutExpired:
        raise BenchError("dune build timed out")
    if r.returncode != 0:
        raise BenchError("dune build failed (exit %d)" % r.returncode)
    return os.path.join(root, "_build", "default", "bin", "fgvc.exe")


def tool_version(cmd, first_only=False):
    """A tool's version output on one line (None if it cannot run)."""
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = (r.stdout or r.stderr).strip()
    if first_only:
        out = out.split("\n")[0]
    return " ".join(out.split()) if r.returncode == 0 and out else None


def c_compiler():
    """The C compiler the native check uses, as the repo's backend finds it."""
    for cc in (os.environ.get("FGV_CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


class Service:
    def __init__(self, exe, *, jobs, cache_max, socket_path=None, trace_path=None):
        cmd = [exe, "--serve", "--jobs", str(jobs), "--cache-max", str(cache_max)]
        if trace_path:
            cmd += ["--trace", trace_path]
        if socket_path:
            cmd += ["--socket", socket_path]
        pipe = subprocess.DEVNULL if socket_path else subprocess.PIPE
        self.spawned_ns = time.perf_counter_ns()
        self.proc = subprocess.Popen(cmd, stdin=pipe, stdout=pipe)
        self.sock = None
        self.seq = 0  # compile requests sent; the service numbers them the same way
        try:
            if socket_path:
                self.sock = self._connect(socket_path)
                self._reader = self.sock.makefile("rb")
                self._send = self.sock.sendall
            else:
                writer = self.proc.stdin

                def send(line):
                    writer.write(line)
                    writer.flush()

                self._reader = self.proc.stdout
                self._send = send
        except BaseException:
            self.kill()
            raise

    def _connect(self, path):
        deadline = time.monotonic() + 20
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                return s
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if self.proc.poll() is not None:
                    raise BenchError("fgvc --serve exited before listening")
                if time.monotonic() > deadline:
                    raise BenchError("fgvc --serve never listened on " + path)
                time.sleep(0.002)

    def call(self, line):
        """Send one request line; return the reply line (with its newline)."""
        if not line.startswith(b'{"op"'):
            self.seq += 1
        self._send(line)
        reply = self._reader.readline()
        if not reply:
            raise BenchError("fgvc --serve closed the connection")
        return reply

    def control(self, op):
        return json.loads(self.call(b'{"op":"%s"}\n' % op.encode()))

    def peak_rss_mb(self):
        """VmHWM of the service process, in MiB."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for fgvc --serve")

    def close(self):
        """Shut the service down and wait for it (its trace is written on exit)."""
        try:
            if self.proc.poll() is None:
                self.call(b'{"op":"shutdown"}\n')
        except (OSError, BenchError):
            pass
        for f in (self._reader, self.sock, self.proc.stdin):
            try:
                if f is not None:
                    f.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
