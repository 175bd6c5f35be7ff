"""``matcher.fan_out`` and the audit stages it shares among forked workers.

Forking is forced by patching the CPU set and ``matcher.FAN_OUT_CELLS``;
each result is checked against the same work done in one process. A
fork while another thread lives warns on Python 3.12+, so here that
warning is an error.
"""

import os
import random
import signal
import threading

import pytest
from oracles import random_corpus, with_unions

from sig_audit import matcher, normalize, structural
from sig_audit.corpus import bundled_corpus
from sig_audit.errors import RegexDialectError
from sig_audit.report import render, run_audit

pytestmark = [
    pytest.mark.skipif(
        not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="fan_out forks only where both exist"
    ),
    pytest.mark.filterwarnings("error::DeprecationWarning"),
]

CELLS = 10**6  # the cells of a unit fan-out: past any threshold set here


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ``fan_out`` sees and the cells a worker must
    take (by default one), and count the forks; returns the setter and
    the fork list."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def use(n: int, threshold: int = 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr(matcher, "FAN_OUT_CELLS", threshold)

    return use, forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def squares_and_pids(i):
    return i * i, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 11])
def test_fan_out_is_the_plain_loop(cpus, workers, count):
    use, forks = cpus
    use(workers)
    got = matcher.fan_out(squares_and_pids, count, CELLS)
    assert [square for square, _ in got] == [i * i for i in range(count)]
    # item i is computed by worker i mod W, the caller being worker 0
    w = min(workers, count)
    assert len(forks) == (w - 1 if w > 1 else 0)
    for i, (_, pid) in enumerate(got):
        assert (pid == os.getpid()) == (w < 2 or i % w == 0)
    no_child_left()


@pytest.mark.parametrize("cells, workers", [(0, 1), (199, 1), (200, 2), (299, 2), (300, 3), (CELLS, 3)])
def test_each_worker_takes_at_least_the_threshold_of_cells(cpus, cells, workers):
    use, forks = cpus
    use(3, threshold=100)
    got = matcher.fan_out(squares_and_pids, 7, cells)
    assert [square for square, _ in got] == [i * i for i in range(7)]
    assert len(forks) == workers - 1
    assert len({pid for _, pid in got}) == workers
    no_child_left()


def test_the_first_error_of_the_plain_loop_reaches_the_caller(cpus):
    """Items 3 (a child's share) and 4 (the caller's) both raise; the
    caller gets item 3's error, raised in its own process."""
    use, forks = cpus
    use(2)
    caller = os.getpid()
    raised_in = []

    def fn(i):
        if i in (3, 4):
            raised_in.append(os.getpid())
            raise RegexDialectError(f"S_{i}", "unsupported construct")
        return i

    with pytest.raises(RegexDialectError) as plain:
        [fn(i) for i in range(8)]
    raised_in.clear()
    with pytest.raises(RegexDialectError) as fanned:
        matcher.fan_out(fn, 8, CELLS)
    assert forks == [1]
    assert type(fanned.value) is type(plain.value) and str(fanned.value) == str(plain.value) == "S_3: unsupported construct"
    # the caller met item 4 in its share, then item 3 when it recomputed
    assert raised_in == [caller, caller]
    no_child_left()


@pytest.mark.parametrize("end", ["exit", "kill"])
def test_a_child_that_dies_partway_costs_a_recompute(cpus, end):
    use, forks = cpus
    use(3)
    caller = os.getpid()

    def fn(i):
        if i == 4 and os.getpid() != caller:
            if end == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return i * 10

    assert matcher.fan_out(fn, 12, CELLS) == [i * 10 for i in range(12)]
    assert len(forks) == 2
    no_child_left()


def test_no_child_outlives_a_caller_error(cpus):
    """The caller's own share raises while the children still compute:
    they are killed and reaped."""
    use, _ = cpus
    use(2)
    caller = os.getpid()
    gate = os.pipe()  # a child blocks reading it until it is killed

    def fn(i):
        if os.getpid() != caller:
            os.read(gate[0], 1)
        elif i == 2:
            raise KeyboardInterrupt  # not recomputed: it ends the caller's share and the call
        return i

    try:
        with pytest.raises(KeyboardInterrupt):
            matcher.fan_out(fn, 6, CELLS)
    finally:
        os.close(gate[0])
        os.close(gate[1])
    no_child_left()


def test_no_fork_while_another_thread_lives(cpus):
    use, forks = cpus
    use(3)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    other.start()
    try:
        got = matcher.fan_out(squares_and_pids, 9, CELLS)
    finally:
        stop.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert got == [squares_and_pids(i) for i in range(9)] and forks == []


def _outcome(call):
    try:
        return call()
    except RegexDialectError as exc:
        return type(exc), str(exc)


def _audit_bytes(corpus, case_sensitive, raw):
    return _outcome(lambda: render(run_audit(corpus=corpus, case_sensitive=case_sensitive, raw=raw), "json"))


def _corpora():
    yield bundled_corpus()
    yield with_unions(bundled_corpus(), 20, random.Random(23))
    rng = random.Random(23)
    for _ in range(6):
        yield random_corpus(rng)


def _counting(monkeypatch, owner, name):
    """Count the calling process's calls of ``owner.name``; a forked
    worker's calls go to its own copy of the list."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _caller_share(calls, use, forks, cpus, run):
    """``run()`` with ``cpus`` CPUs, the caller's calls it made and
    whether it forked."""
    calls.clear()
    before = len(forks)
    use(cpus)
    out = run()
    return out, len(calls), len(forks) > before


@pytest.mark.parametrize("case_sensitive, raw", [(False, False), (True, False), (False, True)])
def test_audit_bytes_forked_equal_one_process(cpus, monkeypatch, case_sensitive, raw):
    """Same bytes, and where the audit forked the caller extracted the
    operators of fewer rules than one process: the workers' facts are
    the ones used."""
    use, forks = cpus
    calls = _counting(monkeypatch, structural, "extract_operators")
    shared = 0
    for corpus in _corpora():
        def run():
            return _audit_bytes(corpus, case_sensitive, raw)

        one, one_calls, one_forked = _caller_share(calls, use, forks, 1, run)
        forked, forked_calls, did_fork = _caller_share(calls, use, forks, 3, run)
        assert forked == one and not one_forked
        no_child_left()
        if did_fork and isinstance(one, bytes) and one_calls >= 2:
            assert 0 < forked_calls < one_calls == len(corpus.signatures)
            shared += 1
    assert shared


@pytest.mark.parametrize("case_sensitive", [False, True])
@pytest.mark.parametrize("apply_prefilter", [False, True])
def test_matrix_rows_forked_equal_one_process(cpus, monkeypatch, case_sensitive, apply_prefilter):
    """Same rows, and where the matrix forked the caller searched fewer
    rules than one process: the workers' searches are the ones used."""
    use, forks = cpus
    calls = _counting(monkeypatch, matcher.TextIndex, "candidates")
    pipeline = normalize.default_pipeline()
    shared = 0
    for corpus in _corpora():
        def run():
            return _outcome(lambda: matcher.detection_matrix(corpus, pipeline, case_sensitive, apply_prefilter))

        one, one_calls, one_forked = _caller_share(calls, use, forks, 1, run)
        forked, forked_calls, did_fork = _caller_share(calls, use, forks, 2, run)
        assert forked == one and not one_forked
        no_child_left()
        if did_fork and one_calls >= 2:
            assert 0 < forked_calls < one_calls
            shared += 1
    assert shared
