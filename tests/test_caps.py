"""Every resource limit is a module constant, read when the function runs.

For each constant, the smallest value that refuses a small input raises
with a message that names the stage and the limit, and one more lets
the same call through.
"""

import inspect
import re

import pytest

import soficlab as sl
from soficlab import karoubi, presets, semigroups, shift
from soficlab.errors import CapExceeded, SearchTimeout


def even_skeleton():
    s, _ = sl.syntactic_semigroup(presets.even_shift())
    return sl.envelope_skeleton(s)


CAPS = {
    "subsets": (
        semigroups, "DEFAULT_SUBSET_CAP", 3,
        lambda: sl.determinize_minimal(presets.golden_mean_shift()),
        CapExceeded, "more than 3 reachable subsets",
    ),
    "elements": (
        semigroups, "DEFAULT_ELEMENT_CAP", 6,
        lambda: sl.syntactic_semigroup(presets.even_shift()),
        CapExceeded, "semigroup grew past 6 elements",
    ),
    "oracle words": (
        semigroups, "DEFAULT_ELEMENT_CAP", 13,
        lambda: sl.syntactic_oracle(presets.even_shift(), 3, 1),
        CapExceeded, "word enumeration: 14 words up to length 3, past the cap of 13",
    ),
    "blocks": (
        shift, "DEFAULT_WORD_CAP", 12,
        lambda: sl.blocks(presets.even_shift(), 3),
        CapExceeded, "more than 12 blocks of length <= 3",
    ),
    "substitution image": (
        shift, "DEFAULT_WORD_CAP", 7,
        lambda: sl.substitution_blocks(presets.fibonacci_substitution(), 2),
        CapExceeded, "substitution image grew past 7 symbols",
    ),
    "factor symbols": (
        shift, "SYMBOL_CAP", 7,
        lambda: sl.substitution_blocks(presets.fibonacci_substitution(), 2),
        CapExceeded, "the factors of an image up to length 2 hold more than 7 symbols",
    ),
    "path vertices": (
        shift, "DEFAULT_VERTEX_CAP", 1,
        lambda: sl.higher_block(presets.period_2_shift(), 3),
        CapExceeded, "higher block recoding: more than 1 path vertices",
    ),
    "block symbols": (
        shift, "DEFAULT_VERTEX_CAP", 2,
        lambda: sl.higher_block(presets.golden_mean_shift(), 2),
        CapExceeded, "higher block recoding: more than 2 block symbols",
    ),
    "envelope arrows": (
        karoubi, "DEFAULT_ARROW_CAP", 24,
        lambda: sl.karoubi_envelope(sl.syntactic_semigroup(presets.golden_mean_shift())[0]),
        CapExceeded, "envelope grew past 24 arrows",
    ),
    "skeleton arrows": (
        karoubi, "DEFAULT_ARROW_CAP", 19,
        even_skeleton,
        CapExceeded, "envelope skeleton grew past 19 arrows",
    ),
    "composable pairs": (
        karoubi, "DEFAULT_PAIR_CAP", 165,
        lambda: sl.categories_isomorphic(even_skeleton(), even_skeleton()),
        CapExceeded, "composition table: 166 composable pairs, past the cap of 165",
    ),
    "search nodes": (
        karoubi, "DEFAULT_SEARCH_BUDGET", 10,
        lambda: sl.categories_isomorphic(even_skeleton(), even_skeleton()),
        SearchTimeout, "isomorphism search passed 10 nodes",
    ),
}


@pytest.mark.parametrize("case", sorted(CAPS))
def test_each_cap_refuses_at_its_limit_and_no_sooner(case, monkeypatch):
    module, name, limit, call, error, message = CAPS[case]
    assert str(limit) in message
    monkeypatch.setattr(module, name, limit)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
    monkeypatch.setattr(module, name, limit + 1)
    call()


def test_no_public_callable_takes_a_limit():
    # every limit is a module constant; a per-call option would be a second design
    for name in sl.__all__:
        obj = getattr(sl, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        assert not {"cap", "budget", "start_seed"} & set(params), name
    assert list(inspect.signature(sl.random_proper_presentations).parameters) == [
        "count",
        "alphabet",
    ]
