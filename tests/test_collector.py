"""An audit makes no reference cycles, so the command line can pause the
cyclic garbage collector while a command runs without letting memory
grow; ``cli.main`` leaves the collector as it found it, except that as
the program it freezes the heap on its way out."""

import gc
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import random_corpus, with_unions

from sig_audit import cli, normalize
from sig_audit.corpus import bundled_corpus
from sig_audit.matcher import detection_matrix
from sig_audit.report import render, run_audit


@pytest.fixture
def collector_state():
    """Put the collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def cycles_left(work) -> int:
    """The objects that the collector finds unreachable after ``work``
    ran once more with the collector off, the first run having warmed
    every cache."""
    work()
    gc.collect()
    gc.disable()
    work()
    return gc.collect()


def _audit(corpus=None, pipeline=None):
    return lambda: render(run_audit(corpus, pipeline))


def _random_corpora():
    """Four random corpora of three rules or more, each with three
    pairwise unions of its rules."""
    rng = random.Random(31)
    drawn = 0
    while drawn < 4:
        corpus = random_corpus(rng)
        if len(corpus.signatures) >= 3:
            drawn += 1
            yield with_unions(corpus, 3, rng)


@pytest.mark.usefixtures("collector_state")
def test_a_bundled_audit_makes_no_reference_cycles():
    assert cycles_left(_audit()) == 0


@pytest.mark.usefixtures("collector_state")
@pytest.mark.parametrize("corpus", _random_corpora(), ids=lambda c: f"{len(c.signatures)}x{len(c.vectors)}")
def test_an_audit_of_rule_unions_makes_no_reference_cycles(corpus):
    assert cycles_left(_audit(corpus, normalize.default_pipeline())) == 0


@pytest.mark.usefixtures("collector_state")
def test_a_matrix_export_makes_no_reference_cycles(corpus, default_pipeline):
    assert cycles_left(lambda: detection_matrix(corpus, default_pipeline).to_json()) == 0


EXITS = {
    "exit-0": (["matrix", "--raw", "--format", "csv"], 0),
    "exit-1": (["structure", "NOPE"], 1),  # an AuditError
    "exit-2": (["classify", "--only", "redundant", "--fail-on-findings"], 2),
}


@pytest.mark.usefixtures("collector_state")
@pytest.mark.parametrize("argv, code", EXITS.values(), ids=EXITS.keys())
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(argv, code, enabled, capsys):
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    assert cli.main(argv) == code
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()


@pytest.mark.usefixtures("collector_state")
def test_main_pauses_the_collector_even_when_a_command_raises(monkeypatch):
    states = []

    def failing(args):
        states.append(gc.isenabled())
        raise RuntimeError("not an AuditError")

    monkeypatch.setattr(cli, "_cmd_matrix", failing)
    gc.enable()
    with pytest.raises(RuntimeError):
        cli.main(["matrix"])
    assert states == [False]
    assert gc.isenabled()


SRC = Path(__file__).resolve().parent.parent / "src"
# ``main()`` run as the program, as the console script runs it, with an
# exit handler that reports the collector's state at shutdown; -S keeps
# site packages out, so the heap is the program's own
PROGRAM = (
    "import atexit, gc, sys; sys.path.insert(0, sys.argv.pop(1)); "
    "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0, 'enabled:', gc.isenabled(), "
    "file=sys.stderr)); "
    "from sig_audit.cli import main; sys.exit(main())"
)


def run_as_program(argv):
    return subprocess.run([sys.executable, "-S", "-c", PROGRAM, str(SRC), *argv], capture_output=True)


def test_main_as_the_program_freezes_the_heap_on_its_way_out(capsysbinary):
    """The interpreter runs a full collection at shutdown even with the
    collector disabled; a frozen heap leaves that collection nothing to
    traverse. The report is the one a library call writes."""
    proc = run_as_program(["audit"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == b"frozen: True enabled: True"
    assert cli.main(["audit"]) == 0
    assert proc.stdout == capsysbinary.readouterr().out


@pytest.mark.parametrize("argv, code", EXITS.values(), ids=EXITS.keys())
def test_main_as_the_program_freezes_on_every_exit_code(argv, code):
    proc = run_as_program(argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == b"frozen: True enabled: True"
