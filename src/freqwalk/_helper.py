"""The helper process of the CLI writer: a fork of the writer that
%-formats the row blocks it is sent, one at a time (cli._write_rows).
Imported when a stream first forks one, so the serial writer and the
library never load it."""

import errno
import os
import pickle
import signal
import warnings
from contextlib import suppress


class Formatter:
    """A process forked from the writer (`start`) that %-formats one block
    at a time: `send` a block's format and values, then `receive` its
    text.  As a context manager, entered before `start`, it closes the
    pipes and reaps the process on exit, whatever ended the block: the
    process exits at the EOF that closing the pipes gives it, as it does
    when the writer is killed."""

    def __init__(self):
        self.pid, self.busy, self.fds = 0, False, []

    def __enter__(self) -> "Formatter":
        return self

    def __exit__(self, *exc) -> None:
        while self.fds:  # a helper blocked on sending its text gets EPIPE
            os.close(self.fds.pop())
        if self.pid:
            with suppress(ChildProcessError):  # reaped already where SIGCHLD is ignored
                os.waitpid(self.pid, 0)

    def start(self) -> None:
        """Fork the helper.  SIGINT is blocked in this thread across the
        fork and stays blocked in the helper, so that a Ctrl-C, which the
        whole process group gets, interrupts the writer alone."""
        self.fds += os.pipe()  # jobs: the helper reads [0], the writer writes [1]
        self.fds += os.pipe()  # texts: the writer reads [2], the helper writes [3]
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns of any fork of a process with threads
                # (the direct engine's row thread, a BLAS pool); `serve` is
                # safe in such a fork
                warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                        DeprecationWarning)
                self.pid = os.fork()
            if not self.pid:
                serve(self.fds[0], self.fds[3])
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for end in (3, 0):  # the helper's
            os.close(self.fds.pop(end))
        self.jobs, self.texts = self.fds

    def send(self, template: str, values: tuple) -> None:
        try:
            _send(self.jobs, (template, values))
        except BrokenPipeError:
            raise _exited() from None
        self.busy = True

    def receive(self) -> str:
        try:
            text = _receive(self.texts)
        except EOFError:
            raise _exited() from None
        self.busy = False
        return text


def _exited() -> OSError:
    return OSError(errno.EPIPE, "the row formatting process exited")


def serve(jobs: int, texts: int) -> None:
    """The helper's life: %-format each block read from `jobs` and send its
    text to `texts`; exit through os._exit at EOF or on any error, so that
    no traceback is printed and no buffer inherited from the writer is
    flushed.

    This is safe in a fork of a writer that has other threads: the loop
    formats only str and float values, reads and writes its two pipes, and
    takes no lock that another thread could have held at the fork."""
    try:
        low, high = sorted((jobs, texts))
        os.closerange(0, low)  # the output file among them: only the writer writes it
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        while True:
            template, values = _receive(jobs)
            _send(texts, template % values)
    except EOFError:  # the writer closed its end: done, or gone
        os._exit(0)
    finally:
        os._exit(1)


def _send(fd: int, message) -> None:
    """`message` pickled, after its length."""
    body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    for data in (len(body).to_bytes(8, "little"), body):
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]


def _receive(fd: int):
    """The next message that `_send` wrote to the other end of `fd`;
    EOFError if that end closes first."""
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _read(fd: int, size: int) -> bytearray:
    data = bytearray(size)
    view, got = memoryview(data), 0
    while got < size:
        count = os.readv(fd, [view[got:]])
        if not count:
            raise EOFError
        got += count
    return data
