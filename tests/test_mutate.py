import pytest
from hypothesis import given, strategies as st

from sig_audit.mutate import (
    DEFAULT_SCHEMES,
    MutationConfig,
    bounded_repeat,
    generate,
    parse_scheme,
    targeted_repeats,
)
from sig_audit.corpus import Signature
from sig_audit.structural import bounded_specials

PAYLOADS = st.text(
    alphabet="abcsel 012;'\"()=<>-un", min_size=1, max_size=24
)


def mutants_of(payload, **kw):
    return [m for m, _ in generate(payload, MutationConfig(**kw))]


def test_documented_tamper_outputs():
    muts = mutants_of("union select")
    assert "Union sElect" in muts
    assert "union/**/select" in muts
    assert "union /*!select*/" in muts
    assert "union%A0select" in muts


def test_bounded_repeat_scheme():
    cfg = MutationConfig(schemes=(bounded_repeat("(", 2),))
    assert mutants_of("1; Select (234)", schemes=cfg.schemes) == ["1; Select ((234))"]


def test_generate_rejects_empty_payload():
    with pytest.raises(ValueError):
        generate("", MutationConfig())


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        MutationConfig(budget=0)


def test_parse_scheme_tokens():
    assert parse_scheme("case_toggle").kind == "case_toggle"
    s = parse_scheme("bounded_repeat=(:3")
    assert (s.kind, s.char, s.count) == ("bounded_repeat", "(", 3)
    with pytest.raises(ValueError):
        parse_scheme("nonsense")


def test_comment_inject_not_normalizable():
    kinds = {s.kind: s for s in DEFAULT_SCHEMES}
    assert kinds["comment_inject"].normalizable is False
    assert kinds["case_toggle"].normalizable is True
    assert bounded_repeat("(", 2).normalizable is False
    assert bounded_repeat(" ", 2).normalizable is True


@given(PAYLOADS, st.integers(0, 2**16))
def test_determinism(payload, seed):
    a = generate(payload, MutationConfig(seed=seed))
    b = generate(payload, MutationConfig(seed=seed))
    assert a == b


@given(PAYLOADS)
def test_non_identity_and_budget(payload):
    out = generate(payload, MutationConfig(budget=7))
    assert len(out) <= 7
    for mutant, _ in out:
        assert mutant != payload


def _balance(s):
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth < 0:
            return None
    return depth


@given(PAYLOADS)
def test_paren_schemes_preserve_balance(payload):
    cfg = MutationConfig(schemes=(parse_scheme("redundant_parens"), bounded_repeat("(", 3)))
    before = _balance(payload)
    for mutant, _ in generate(payload, cfg):
        assert _balance(mutant) == before


def bound_on(char_class, max_occurrences):
    """The one bound of a rule that caps ``char_class`` at ``max_occurrences``."""
    [bound] = bounded_specials(Signature("S_x", f"x{char_class}{{0,{max_occurrences}}}"))
    return bound


def test_targeted_repeats_space_extension():
    bound = bound_on(r"\s", 1)
    seed = "waitfor delay' 00:00:01'"
    muts = [m for m, _ in targeted_repeats(seed, bound)]
    assert "waitfor delay'  00:00:01'" in muts
    for m in muts:
        assert m != seed


def test_targeted_repeats_paren_wrap():
    bound = bound_on(r"[\(]", 1)
    muts = [m for m, _ in targeted_repeats("1; Select (234)", bound)]
    assert muts == ["1; Select ((234))"]


def test_targeted_repeats_no_sites():
    bound = bound_on(r"[\(]", 1)
    assert targeted_repeats("abc", bound) == []
    # quote bounds have no safe insertion site
    qbound = bound_on('"', 1)
    assert targeted_repeats('a "x" b', qbound) == []


def test_targeted_repeats_schemes_are_semantics_preserving():
    bound = bound_on(r"\s", 2)
    mutants = targeted_repeats("a b c", bound)
    assert mutants
    for _, scheme in mutants:
        # a repeat of a freely repeatable character, one past the cap
        assert scheme.kind == "bounded_repeat"
        assert scheme.count == 3
