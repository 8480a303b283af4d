"""Known-good concurrency corpus: nothing here may be flagged."""

import threading

_lock = threading.Lock()
_CACHE = {}


def single_flight(executor, task, event: threading.Event):
    # The sanctioned shape: decide under the lock, wait outside it.
    with _lock:
        future = executor.submit(task)
    event.wait()
    return future.result()


def guarded_cache_write(key, value):
    with _lock:
        _CACHE[key] = value


def register_entry(key, value):
    # Import-time registration (the register_* decorator pattern) is
    # exempt: imports are effectively single-threaded.
    _CACHE[key] = value
