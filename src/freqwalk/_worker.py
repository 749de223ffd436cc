"""The worker thread that both engines hand the second half of a step to
(engine._halves).  Imported when a walk first hands it work, so importing
freqwalk neither compiles this module nor loads queue."""

import functools
import queue
import threading


class Task:
    """A call handed to the worker thread.  Whoever takes its claim lock
    first runs it: the worker, or the caller that takes it back (`cancel`)."""

    def __init__(self, call):
        self._call, self._claim, self._finished = call, threading.Lock(), threading.Event()
        self._value = self._error = None

    def run(self) -> None:
        """Run the call here, on the worker, unless it was taken back."""
        if not self._claim.acquire(blocking=False):
            return
        call, self._call = self._call, None
        try:
            self._value = call()
        except BaseException as error:  # raised again in the caller, by `result`
            self._error = error
        self._finished.set()

    def cancel(self) -> bool:
        """Take the call back unless the worker has claimed it; the call,
        and the operands it holds, are dropped at once."""
        if not self._claim.acquire(blocking=False):
            return False
        self._call = None
        self._finished.set()
        return True

    def done(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Whether the call was run or taken back within `timeout` s."""
        return self._finished.wait(timeout)

    def result(self, timeout: float | None = None):
        """The call's value, once the worker has run it (None if taken
        back); its exception is raised here."""
        if not self.wait(timeout):
            raise TimeoutError("the worker has not run the task")
        if self._error is not None:
            raise self._error
        return self._value


class Worker:
    """One daemon thread that runs `Task`s in the order handed to it."""

    def __init__(self):
        self._tasks = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="freqwalk-rows", daemon=True).start()

    def submit(self, fn, *args) -> Task:
        task = Task(functools.partial(fn, *args))
        self._tasks.put(task)
        return task

    def _serve(self) -> None:
        get = self._tasks.get
        while True:
            get().run()  # holds no task while it waits for the next
