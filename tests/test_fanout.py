"""``matcher.fan_out`` and the audit stages it shares among forked workers.

Forking is forced by patching the CPU set, ``matcher.FAN_OUT_CELLS`` and
``report.FACTS_SETUP_CELLS``; each result is checked against the same
work done in one process. Where the CPU set is faked, the pins
``fan_out`` asks for are recorded rather than applied; the tests marked
``real_cpus`` fork on the process's own CPU set and pin for real. A
fork while another thread lives warns on Python 3.12+, so here that
warning is an error.
"""

import errno
import os
import random
import signal
import threading

import pytest
from oracles import random_corpus, with_unions

from sig_audit import matcher, normalize, report, structural
from sig_audit.corpus import bundled_corpus
from sig_audit.errors import RegexDialectError
from sig_audit.report import render, run_audit

pytestmark = [
    pytest.mark.skipif(
        not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="fan_out forks only where both exist"
    ),
    pytest.mark.filterwarnings("error::DeprecationWarning"),
]

CELLS = 10**6  # the cells of an item: past any threshold set here

REAL_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0
real_cpus = pytest.mark.skipif(REAL_CPUS < 2, reason="pins for real only where the process may run on 2 CPUs")


@pytest.fixture
def pins():
    """The CPU sets a process asked ``os.sched_setaffinity`` for while
    ``cpus`` faked the CPU set, in order: a child sees its own pin."""
    return []


@pytest.fixture
def cpus(monkeypatch, pins):
    """Set the CPU count ``fan_out`` sees and the cells a worker must
    take (by default one, an audit's rule workers included), and count
    the forks; returns the setter and the fork list. A count of None
    keeps the process's own CPU set and pins for real. The process's
    real affinity mask must be the one it had before the test."""
    real_get, real_set = os.sched_getaffinity, os.sched_setaffinity
    mask = real_get(0)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def use(n: int | None, threshold: int = 1):
        if n is None:
            monkeypatch.setattr(os, "sched_getaffinity", real_get)
            monkeypatch.setattr(os, "sched_setaffinity", real_set)
        else:  # a faked set is never applied: it could shrink the real mask
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
            monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(set(cpus)))
        monkeypatch.setattr(matcher, "FAN_OUT_CELLS", threshold)
        monkeypatch.setattr(report, "FACTS_SETUP_CELLS", 0)

    yield use, forks
    after = real_get(0)
    real_set(0, mask)
    assert after == mask


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def squares_and_pids(i):
    return i * i, os.getpid()


def check_the_plain_loop(forks, workers, count):
    before = len(forks)
    got = matcher.fan_out(squares_and_pids, [CELLS] * count)
    assert [square for square, _ in got] == [i * i for i in range(count)]
    # item i is computed by worker i mod W, the caller being worker 0
    w = min(workers, count)
    assert len(forks) - before == (w - 1 if w > 1 else 0)
    for i, (_, pid) in enumerate(got):
        assert (pid == os.getpid()) == (w < 2 or i % w == 0)
    no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 11])
def test_fan_out_is_the_plain_loop(cpus, workers, count):
    use, forks = cpus
    use(workers)
    check_the_plain_loop(forks, workers, count)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_one_cpu_set_read_per_fan_out(cpus, monkeypatch, workers):
    """W, the shares and the pins all come from one read of the CPU set,
    whether or not the call forks."""
    use, forks = cpus
    use(workers)
    reads = _counting(monkeypatch, os, "sched_getaffinity")
    for count in (0, 1, 5):
        reads.clear()
        check_the_plain_loop(forks, workers, count)
        assert len(reads) == 1


def refuse(pid, cpus):
    raise OSError(errno.EINVAL, "Invalid argument")


@pytest.mark.parametrize("workers", [None, 2, 3])
@pytest.mark.parametrize("count", [2, 5, 11])
def test_a_refused_pin_is_harmless(cpus, monkeypatch, workers, count):
    """Every pin raising, in the caller and in each child, changes
    neither the results, nor the forks, nor which worker computes
    which item."""
    if workers is None and REAL_CPUS < 2:
        pytest.skip("the real CPU set has one CPU: nothing forks")
    use, forks = cpus
    use(workers)
    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    check_the_plain_loop(forks, workers or REAL_CPUS, count)


@pytest.mark.parametrize("workers", [2, 3])
def test_child_w_pins_itself_to_the_wth_cpu(cpus, pins, workers):
    """Each item sees the pins of the process that computed it: child w
    pinned itself to CPU w, and the caller never pins."""
    use, _ = cpus
    use(workers)
    got = matcher.fan_out(lambda i: list(pins), [CELLS] * 7)
    assert got == [[{i % workers}] if i % workers else [] for i in range(7)]
    assert pins == []
    no_child_left()


def spread(cells: int, count: int) -> list[int]:
    """``count`` costs, as equal as can be, adding up to ``cells``."""
    return [cells // count + (i < cells % count) for i in range(count)]


@pytest.mark.parametrize("cells, workers", [(0, 1), (199, 1), (200, 2), (299, 2), (300, 3), (CELLS, 3)])
def test_each_worker_takes_at_least_the_threshold_of_cells(cpus, cells, workers):
    use, forks = cpus
    use(3, threshold=100)
    got = matcher.fan_out(squares_and_pids, spread(cells, 7))
    assert [square for square, _ in got] == [i * i for i in range(7)]
    assert len(forks) == workers - 1
    assert len({pid for _, pid in got}) == workers
    no_child_left()


@pytest.mark.parametrize("cells, workers", [(299, 1), (300, 2), (449, 2), (450, 3)])
def test_a_workers_setup_adds_to_its_threshold(cpus, cells, workers):
    """With ``setup`` cells a worker repeats, each takes at least
    ``FAN_OUT_CELLS`` plus ``setup``."""
    use, forks = cpus
    use(3, threshold=100)
    got = matcher.fan_out(squares_and_pids, spread(cells, 7), 50)
    assert [square for square, _ in got] == [i * i for i in range(7)]
    assert len(forks) == workers - 1
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
        matcher.fan_out(fn, [CELLS] * 8)
    assert forks == [1]
    assert type(fanned.value) is type(plain.value) and str(fanned.value) == str(plain.value) == "S_3: unsupported construct"
    # the caller met item 4 in its share, then item 3 when it recomputed
    assert raised_in == [caller, caller]
    no_child_left()


def test_a_child_whose_item_raises_sends_nothing(cpus):
    """Item 5 raises in the child alone: the child sends none of its
    share, so the caller computes all of it after its own, in index
    order, the items before the error included."""
    use, forks = cpus
    use(2)
    caller = os.getpid()
    in_caller = []

    def fn(i):
        if os.getpid() == caller:
            in_caller.append(i)
        elif i == 5:
            raise ValueError(i)
        return i

    assert matcher.fan_out(fn, [CELLS] * 8) == list(range(8))
    assert forks == [1]
    assert in_caller == [0, 2, 4, 6, 1, 3, 5, 7]
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

    assert matcher.fan_out(fn, [CELLS] * 12) == [i * 10 for i in range(12)]
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
            matcher.fan_out(fn, [CELLS] * 6)
    finally:
        os.close(gate[0])
        os.close(gate[1])
    no_child_left()


def _ending(case: str, caller: int):
    """An item function that returns its item, except at item 3: there
    it raises everywhere, or ends the child that computes it."""

    def fn(i):
        if i == 3 and case == "an item raises":
            raise RegexDialectError(f"S_{i}", "unsupported construct")
        if i == 3 and case == "a child dies" and os.getpid() != caller:
            os._exit(3)
        return i

    return fn


@real_cpus
@pytest.mark.parametrize("case", ["success", "an item raises", "a child dies"])
def test_the_caller_keeps_its_mask(cpus, case):
    """With the children pinned for real, the caller's affinity mask
    after a fan-out is the one before it: on success, when an item
    raises and the caller raises it again, and when a child dies
    partway."""
    use, forks = cpus
    use(None)
    before = os.sched_getaffinity(0)
    fn = _ending(case, os.getpid())
    if case == "an item raises":
        with pytest.raises(RegexDialectError):
            matcher.fan_out(fn, [CELLS] * 8)
    else:
        assert matcher.fan_out(fn, [CELLS] * 8) == list(range(8))
    assert len(forks) == min(8, REAL_CPUS) - 1
    assert os.sched_getaffinity(0) == before
    no_child_left()


@real_cpus
def test_each_child_runs_on_its_own_cpu(cpus, corpus):
    """Every item reports the process and the CPUs that computed it: item
    i is worker i mod W's, the caller's items see the caller's whole
    mask, and child w runs on CPU w of the set alone. A bundled audit
    forked the same way renders the bytes of the one-process audit."""
    use, forks = cpus
    use(None)
    caller, mask = os.getpid(), os.sched_getaffinity(0)
    got = matcher.fan_out(lambda i: (os.getpid(), os.sched_getaffinity(0)), [CELLS] * 3 * REAL_CPUS)
    assert len(forks) == REAL_CPUS - 1
    workers = [got[w] for w in range(REAL_CPUS)]
    assert got == workers * 3
    assert workers[0] == (caller, mask)
    assert [cpu_set for _, cpu_set in workers[1:]] == [{cpu} for cpu in sorted(mask)[1:]]
    assert len({pid for pid, _ in workers}) == REAL_CPUS
    no_child_left()

    forked = render(run_audit(corpus=corpus), "json")
    assert len(forks) == REAL_CPUS - 1 + min(REAL_CPUS, len(corpus.signatures)) - 1
    use(1)
    assert render(run_audit(corpus=corpus), "json") == forked
    no_child_left()


def test_no_fork_while_another_thread_lives(cpus):
    use, forks = cpus
    use(3)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    other.start()
    try:
        got = matcher.fan_out(squares_and_pids, [CELLS] * 9)
    finally:
        stop.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert got == [squares_and_pids(i) for i in range(9)] and forks == []


def random_costs(rng: random.Random, count: int) -> list[int]:
    """Item costs as skewed as a rule set's: mostly light, a few heavy."""
    return [rng.choice([0, 1, 5, 40, 400, 4000]) + rng.randrange(50) for _ in range(count)]


def test_weighted_shares_are_deterministic(cpus):
    """The same costs give the same shares, and the same items run in
    the caller, on every call."""
    use, forks = cpus
    use(3)
    rng = random.Random(41)
    for _ in range(20):
        costs = random_costs(rng, rng.randrange(1, 30))
        for workers in (2, 3, 4):
            assert matcher._shares(costs, workers) == matcher._shares(list(costs), workers)
    costs = random_costs(rng, 17)
    runs = [matcher.fan_out(squares_and_pids, costs) for _ in range(3)]
    caller = os.getpid()
    in_caller = [[i for i, (_, pid) in enumerate(got) if pid == caller] for got in runs]
    assert in_caller[0] == in_caller[1] == in_caller[2] == matcher._shares(costs, 3)[0]
    assert all([square for square, _ in got] == [i * i for i in range(17)] for got in runs)
    assert len(forks) == 6
    no_child_left()


def test_no_share_exceeds_its_part_plus_the_largest_item():
    rng = random.Random(42)
    for _ in range(300):
        costs = random_costs(rng, rng.randrange(0, 40))
        for workers in range(1, 6):
            shares = matcher._shares(costs, workers)
            assert len(shares) == workers
            assert sorted(i for share in shares for i in share) == list(range(len(costs)))
            assert all(share == sorted(share) for share in shares)
            bound = sum(costs) / workers + max(costs, default=0)
            assert all(sum(costs[i] for i in share) <= bound for share in shares), (costs, shares)


@pytest.mark.parametrize("cost", [0, 1, 7])
def test_equal_costs_deal_item_i_to_worker_i_mod_w(cost):
    for count in range(12):
        for workers in range(1, 5):
            want = [list(range(w, count, workers)) for w in range(workers)]
            assert matcher._shares([cost] * count, workers) == want


def _outcome(call):
    try:
        return call()
    except RegexDialectError as exc:
        return type(exc), str(exc)


def _audit_bytes(corpus, case_sensitive, raw):
    pipeline = normalize.RAW_PIPELINE if raw else None
    return _outcome(lambda: render(run_audit(corpus, pipeline, case_sensitive=case_sensitive), "json"))


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


def _recording_matrices(monkeypatch):
    """The list each ``matcher.detection_matrix`` build is appended to,
    and the unpatched function."""
    built = []
    real = matcher.detection_matrix

    def recorded(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(matcher, "detection_matrix", recorded)
    return built, real


def _row_corpora():
    yield bundled_corpus()
    yield with_unions(bundled_corpus(), 166, random.Random(29))
    rng = random.Random(29)
    for _ in range(4):
        yield random_corpus(rng)


@pytest.mark.parametrize("case_sensitive", [False, True])
def test_forked_audit_rows_equal_one_process_matrices(cpus, monkeypatch, case_sensitive):
    """A forked audit's per-rule items deliver the rows of both its
    matrices: ``run_audit`` builds exactly two, equal to one-process
    ``detection_matrix`` builds, and the caller searched fewer rules than
    there are, so the workers' rows are the ones used."""
    use, forks = cpus
    built, real = _recording_matrices(monkeypatch)
    searched = _counting(monkeypatch, matcher.TextIndex, "hits")
    pipeline = normalize.default_pipeline()
    shared = 0
    for corpus in _row_corpora():
        use(1)
        try:
            want = (
                real(corpus, normalize.RAW_PIPELINE, case_sensitive),
                real(corpus, pipeline, case_sensitive, apply_prefilter=True),
            )
        except RegexDialectError:
            continue
        built.clear()
        searched.clear()
        before = len(forks)
        use(3)
        run_audit(corpus=corpus, case_sensitive=case_sensitive)
        assert tuple(built) == want
        no_child_left()
        if len(forks) > before:
            assert 0 < len(searched) < len(corpus.signatures)
            shared += 1
    assert shared >= 3


@pytest.mark.parametrize("case_sensitive", [False, True])
def test_the_bundled_audit_stays_in_one_process(cpus, monkeypatch, corpus, case_sensitive):
    """At the shipped break-evens the bundled audit forks nothing,
    however many CPUs there are: its rules are below two workers' worth."""
    _, forks = cpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    run_audit(corpus=corpus, case_sensitive=case_sensitive)
    assert forks == []


def test_one_fan_out_per_command(cpus, corpus):
    """A matrix built without ``rows`` and an audit each fork W - 1
    children, W being 2 here: the rules are the one stage that fans out,
    as ``TextIndex.costs`` builds the literal masks in the caller."""
    use, forks = cpus
    use(2)
    matcher.detection_matrix(corpus, normalize.default_pipeline())
    assert len(forks) == 1
    no_child_left()
    run_audit(corpus=corpus)
    assert len(forks) == 2
    no_child_left()


def test_text_index_costs_fan_nothing_out(cpus, monkeypatch, corpus):
    use, forks = cpus
    use(2)

    def no_fan_out(*args, **kwargs):
        raise AssertionError("TextIndex.costs called fan_out")

    monkeypatch.setattr(matcher, "fan_out", no_fan_out)
    compiled = [matcher.compile_signature(sig) for sig in corpus.signatures]
    index = matcher.TextIndex(corpus, [(normalize.RAW_PIPELINE, False)])
    assert index.costs(compiled) == [len(index.candidates(c)) for c in compiled]
    assert forks == []


@pytest.mark.parametrize("original", ["S_7", "S_44", "S_63"])
def test_a_rule_copied_under_a_fresh_id(cpus, monkeypatch, corpus, original):
    """The copy shares the original's compile in the audit's pattern
    table, gets the original's raw and deployed rows, and is reported as
    its duplicate; the report is the same forked and in one process."""
    use, forks = cpus
    copy = f"{original}_copy"
    widened = corpus._replace(signatures=corpus.signatures + (corpus.signature(original)._replace(id=copy),))
    built, _ = _recording_matrices(monkeypatch)
    reports = []
    for count in (1, 2):
        use(count)
        built.clear()
        reports.append(run_audit(corpus=widened))
        no_child_left()
        assert len(built) == 2  # the raw, then the deployed matrix
        for matrix in built:
            assert matrix.rows[-1] == matrix.rows[matrix.signature_ids.index(original)]
    assert forks == [1]
    assert render(reports[0], "json") == render(reports[1], "json")
    duplicates = {
        (f.signature_id, f.evidence["duplicate_of"]) for f in reports[0].findings if "duplicate_of" in f.evidence
    }
    assert (max(original, copy), min(original, copy)) in duplicates
