"""Metamorphic relations: the verdicts of two related models, compared.

A relation needs no ground truth, so it can catch a bug that moves all
three routes together, as one in the shared estimate table or in
`label_compose` would, where the three-way agreement stays green.
"""

import random
from collections import Counter

from desguard.attacks import MODES
from desguard.automata import GENUINE, Alphabet, state_name
from desguard.modelio import DIAGNOSER, ORACLE, VERIFIER
from desguard.safety import check_model

from generators import random_model

ROUTES = (DIAGNOSER, VERIFIER, ORACLE)


def safe_by_every_route(model) -> bool:
    return all(check_model(model, route).safe for route in ROUTES)


def finer_detector(model):
    """`model` with the same closed loop and every unobservable genuine event
    observable, except the attack events' base events: an ae artifact keeps
    its base event's observability, so the base keeps it too."""
    alphabet = model.alphabet
    bases = {alphabet[event].base for event in model.attack_events}
    return model.replace(alphabet=Alphabet({
        event: info.replace(observable=True) if info.kind == GENUINE and event not in bases else info
        for event, info in alphabet.infos.items()
    }))


def test_a_finer_detector_keeps_a_safe_model_safe():
    """The detector observes a superset of events: each estimate can only
    shrink, so certainty comes no later and the freeze prunes no fewer
    runs.  Every model safe by all three routes stays safe by all three."""
    refined = Counter()
    for mode in MODES:
        for seed in range(600):
            model = random_model(random.Random(seed), mode)
            if model.analysis.nominal_unsafe or not safe_by_every_route(model):
                continue
            finer = finer_detector(model)
            if finer.alphabet == model.alphabet:
                continue
            assert safe_by_every_route(finer), (mode, seed)
            refined[mode] += 1
    # 78 ae, 207 se and 215 si models gain observable events.
    assert sum(refined.values()) >= 300 and min(refined[mode] for mode in MODES) >= 50


def more_unsafe_states(model, rng: random.Random):
    """`model` with one more unsafe plant state, drawn by `rng` among the
    plant states no attack-free run reaches, and every closed-loop state
    over it added to `unsafe_states`; None when every plant state is
    reached attack-free.  So the enlarged model is not nominally unsafe."""
    analysis = model.analysis
    clean = {
        model.plant_component(analysis.decode(s)[0]) for s in analysis.automaton.states if not s & 1
    }
    closed = model.model.states
    fresh = sorted({model.plant_component(s) for s in closed} - clean, key=state_name)
    if not fresh:
        return None
    plant_state = rng.choice(fresh)
    added = {s for s in closed if model.plant_component(s) == plant_state}
    return model.replace(unsafe_states=model.unsafe_states | added)


def test_more_unsafe_plant_states_keep_an_unsafe_model_unsafe():
    """Unsafe states only decide which runs breach the defense, never which
    runs there are, so every run that breached it still does.  Each route
    keeps every unsafe verdict unsafe when plant states become unsafe."""
    compared, kept, flipped = 0, 0, 0
    for mode in MODES:
        for seed in range(400):
            model = random_model(random.Random(seed), mode)
            if model.analysis.nominal_unsafe:
                continue
            enlarged = more_unsafe_states(model, random.Random(seed))
            if enlarged is None:
                continue
            assert not enlarged.analysis.nominal_unsafe, (mode, seed)
            before = [check_model(model, route).safe for route in ROUTES]
            after = [check_model(enlarged, route).safe for route in ROUTES]
            for route, was_safe, is_safe in zip(ROUTES, before, after):
                assert was_safe or not is_safe, (mode, seed, route)
            compared += 1
            kept += not any(before)
            flipped += all(before) and not any(after)
    # Premise: 592 models have a plant state to add; 345 stay unsafe and
    # 243 turn from safe to unsafe, so the relation sees both.
    assert compared >= 550 and kept >= 300 and flipped >= 200, (compared, kept, flipped)
