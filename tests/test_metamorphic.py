"""Metamorphic relations: the verdicts of two related models, compared.

A relation needs no ground truth, so it can catch a bug that moves all
three routes together, as one in the shared estimate table or in
`label_compose` would, where the three-way agreement stays green.
"""

import random
from collections import Counter

from desguard.attacks import MODES
from desguard.automata import GENUINE, Alphabet
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
