"""Shared test helpers."""

import random

from legfronts.fronts import FrontDiagram, FrontEvent


def random_front(rng: random.Random, max_events: int = 16, max_strands: int = 8) -> FrontDiagram:
    """A valid-by-construction random front; may be a knot or a link."""
    events = []
    n = 0
    while True:
        if n == 0:
            if events and (len(events) >= max_events or rng.random() < 0.35):
                break
            events.append(FrontEvent("L", 1))
            n = 2
            continue
        if len(events) >= max_events:
            kind = "R"
        elif n >= max_strands:
            kind = rng.choice(["R", "R", "X", "X", "X"])
        else:
            kind = rng.choice(["L", "R", "X", "X"])
        if kind == "L":
            k = rng.randint(1, n + 1)
            n += 2
        elif kind == "R":
            k = rng.randint(1, n - 1)
            n -= 2
        else:
            k = rng.randint(1, n - 1)
        events.append(FrontEvent(kind, k))
    return FrontDiagram(tuple(events), name="random")


def random_fronts(seed: int, count: int, max_crossings: int | None = None, knots_only: bool = False):
    """A deterministic batch of random fronts, optionally capped and filtered."""
    from legfronts import components

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_front(rng)
        if max_crossings is not None and f.num_crossings > max_crossings:
            continue
        if knots_only and components(f).num_components != 1:
            continue
        out.append(f)
    return out


def ruled_random_front(rng: random.Random, max_events: int = 16, max_strands: int = 8) -> FrontDiagram:
    """A random front built along one normal ruling, so it has at least one.

    The walk keeps the ruling's pairing (``partner[h]`` is the strand paired
    with strand h, heights from 0): a right cusp only closes an eye, a
    crossing never joins the two arcs of one eye, and a crossing is a switch
    only when the two eyes are nested or disjoint there.
    """
    events, partner = [], []
    while True:
        n = len(partner)
        if n == 0 and events and (len(events) >= max_events or rng.random() < 0.2):
            break
        closable = [h for h in range(n - 1) if partner[h] == h + 1]
        crossable = [h for h in range(n - 1) if partner[h] != h + 1]
        if len(events) >= max_events:
            if closable:
                kind, h = "R", closable[0]
            else:  # shorten the narrowest eye until it can close
                kind = "X"
                h = min(range(n), key=lambda h: partner[h] - h if partner[h] > h else n)
        else:
            kinds = ["L"] * (n < max_strands) + ["R"] * bool(closable) + ["X"] * 3 * bool(crossable)
            kind = rng.choice(kinds)
            h = rng.choice({"L": range(n + 1), "R": closable, "X": crossable}[kind])
        events.append(FrontEvent(kind, h + 1))
        if kind == "L":
            partner = [q + 2 if q >= h else q for q in partner]
            partner[h:h] = [h + 1, h]
        elif kind == "R":
            partner = [q - 2 if q > h else q for q in partner[:h] + partner[h + 2:]]
        else:
            lo_a, hi_a = sorted((h, partner[h]))
            lo_b, hi_b = sorted((h + 1, partner[h + 1]))
            normal = hi_a < lo_b or hi_b < lo_a or lo_a < lo_b < hi_b < hi_a or lo_b < lo_a < hi_a < hi_b
            if not (normal and rng.random() < 0.5):  # no switch: the strands trade eyes
                a, b = partner[h], partner[h + 1]
                partner[a], partner[b] = h + 1, h
                partner[h], partner[h + 1] = b, a
    return FrontDiagram(tuple(events), name="ruled")


def nested_unlink(n: int) -> FrontDiagram:
    """The n-component unlink as n nested saucers."""
    events = [FrontEvent("L", i) for i in range(1, n + 1)]
    events += [FrontEvent("R", i) for i in range(n, 0, -1)]
    return FrontDiagram(tuple(events), name=f"unlink{n}")


# each event at height k -> its events in the 2-copy, as (kind, height - 2k)
_TWO_COPY = {
    "L": (("L", -1), ("L", 1), ("X", 0)),
    "R": (("X", 0), ("R", -1), ("R", -1)),
    "X": (("X", 0), ("X", -1), ("X", 1), ("X", 0)),
}


def whitehead_double(front: FrontDiagram, clasps: int = 2) -> FrontDiagram:
    """The Legendrian Whitehead double Wh(K) of the knot front K.

    The 2-copy replaces each event by two parallel strands; every front
    ends with ``R1``, so the 2-copy ends with ``X2 R1 R1``, and its ``X2``
    becomes ``clasps`` crossings.  One leaves the 2-copy itself, a
    2-component link with tb = 4 tb(K).  Two make a knot that bounds a
    band with one clasp, so its genus is at most 1.
    """
    events = [FrontEvent(kind, 2 * e.height + d) for e in front.events for kind, d in _TWO_COPY[e.kind]]
    events[-3:-2] = [FrontEvent("X", 2)] * clasps
    return FrontDiagram(tuple(events), name=f"Wh({front.name})")
