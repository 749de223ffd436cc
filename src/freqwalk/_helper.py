"""The helper process of the CLI writer: a fork of the writer that
%-formats the row blocks it is sent, one at a time (cli._write_rows).
Each way, the messages are one pickle stream on a buffered pipe: the
jobs, a block's format and values, to the helper, and their texts back.
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
        self.pid, self.busy, self.jobs, self.texts = 0, False, None, None

    def __enter__(self) -> "Formatter":
        return self

    def __exit__(self, *exc) -> None:
        for pipe in (self.texts, self.jobs):  # a helper blocked on sending its text gets EPIPE
            if pipe is not None:
                with suppress(BrokenPipeError):  # the unsent rest of a job, the helper gone
                    pipe.close()
        if self.pid:
            with suppress(ChildProcessError):  # reaped already where SIGCHLD is ignored
                os.waitpid(self.pid, 0)

    def start(self) -> None:
        """Fork the helper.  SIGINT is blocked in this thread across the
        fork and stays blocked in the helper, so that a Ctrl-C, which the
        whole process group gets, interrupts the writer alone."""
        ends = []  # the helper's: it reads jobs from [0] and writes texts to [1]
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            read, write = os.pipe()
            ends.append(read)
            self.jobs = open(write, "wb")
            read, write = os.pipe()
            ends.append(write)
            self.texts = open(read, "rb")
            with warnings.catch_warnings():
                # Python >= 3.12 warns of any fork of a process with threads
                # (the direct engine's row thread, a BLAS pool); `serve` is
                # safe in such a fork
                warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                        DeprecationWarning)
                self.pid = os.fork()
            if not self.pid:
                serve(*ends)
        finally:
            for fd in ends:
                os.close(fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def send(self, template: str, values: tuple) -> None:
        try:
            pickle.dump((template, values), self.jobs, pickle.HIGHEST_PROTOCOL)
            self.jobs.flush()
        except BrokenPipeError:
            raise _exited() from None
        self.busy = True

    def receive(self) -> str:
        try:
            text = pickle.load(self.texts)
        except (EOFError, pickle.UnpicklingError):  # the helper exited before, or while, it sent
            raise _exited() from None
        self.busy = False
        return text


def _exited() -> OSError:
    return OSError(errno.EPIPE, "the row formatting process exited")


def serve(jobs: int, texts: int) -> None:
    """The helper's life: %-format each block loaded from the pipe `jobs`
    and dump its text to the pipe `texts`; exit through os._exit at EOF or
    on any error, so that no traceback is printed and no buffer inherited
    from the writer is flushed.

    The helper binds itself to the last CPU it may run on: left free, it
    shared the writer's CPU in some runs on a 2-CPU host, and a 50-step
    stream took 1.13-1.16x the writer-alone time where it takes 0.76-0.85x
    bound (ROADMAP item 18).

    This is safe in a fork of a writer that has other threads: the loop
    formats only str and float values, reads and writes its two pipes, and
    takes no lock that another thread could have held at the fork."""
    try:
        if hasattr(os, "sched_setaffinity"):
            with suppress(OSError):  # bound or not, it formats the same texts
                os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        low, high = sorted((jobs, texts))
        os.closerange(0, low)  # the output file among them: only the writer writes it
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        source, sink = open(jobs, "rb"), open(texts, "wb")
        while True:
            template, values = pickle.load(source)
            pickle.dump(template % values, sink, pickle.HIGHEST_PROTOCOL)
            sink.flush()
    except EOFError:  # the writer closed its end: done, or gone
        os._exit(0)
    finally:
        os._exit(1)
