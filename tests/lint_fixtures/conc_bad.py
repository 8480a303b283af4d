"""Known-bad concurrency corpus: every block here must be flagged."""

import threading
import time

_lock = threading.Lock()
_CACHE = {}


def blocking_result_under_lock(executor, task):
    with _lock:
        future = executor.submit(task)
        return future.result()  # conc-blocking-in-lock


def sleeping_under_lock():
    with _lock:
        time.sleep(0.1)  # conc-blocking-in-lock


def waiting_under_lock(event: threading.Event):
    with _lock:
        event.wait()  # conc-blocking-in-lock


def unguarded_cache_write(key, value):
    _CACHE[key] = value  # conc-global-mutation


def unguarded_cache_update(entries):
    _CACHE.update(entries)  # conc-global-mutation


def register_entry(key, value):
    # A register_* name earns no exemption: this is still an unlocked
    # write to module state.
    _CACHE[key] = value  # conc-global-mutation
