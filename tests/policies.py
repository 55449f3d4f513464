"""Choice policies for tests: a fixed script of labels and a seeded random
choice.  `routedmpst simulate` itself runs `BoundedLoopPolicy`."""

from routedmpst.simulator import ChoicePolicy, ConformanceViolation


class FixedScript(ChoicePolicy):
    """Selects labels from a fixed list, by name, in order."""

    def __init__(self, labels):
        self._labels = list(labels)
        self._next = 0

    def choose(self, state_id, labels, rng):
        if self._next >= len(self._labels):
            raise ConformanceViolation("fixed script exhausted")
        want = self._labels[self._next]
        self._next += 1
        for lbl in labels:
            if lbl.name == want:
                return lbl
        raise ConformanceViolation(f"scripted label {want!r} not enabled")


class SeededRandomPolicy(ChoicePolicy):
    def choose(self, state_id, labels, rng):
        return labels[rng.randrange(len(labels))]
