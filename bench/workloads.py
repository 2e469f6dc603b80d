"""The four benchmark workloads.

Each workload is a closed loop run by one caller on one thread: the next
op starts only after the last one returned.  A workload turns the seed
into an endless stream of *passes*; a pass is a shuffled list of items,
and one item is one op.  A run is a fixed number of whole passes, sized
from ``PASS_S`` so that it lasts about ``--seconds`` at the commit that
defined the benchmark; the work, and so the ranks behind the median and
the tail, stay the same when the program gets faster or slower.  The op
is the only timed code.  ``check``,
``reference`` and ``fingerprint`` read an op's output afterwards,
outside the timed region.

Input sizes are bounded by choosing the inputs from the families named
below, never by timing inputs and dropping the slow ones.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass

import families


@dataclass(frozen=True)
class Item:
    name: str  # unique per distinct input; failures are listed by it
    args: tuple


class Workload:
    name = ""
    PASS_S = 1.0  # seconds one pass took when the benchmark was defined

    def __init__(self, lf, seed: int, workdir):
        self.lf = lf
        self.rng = random.Random(seed)

    def passes(self):
        raise NotImplementedError

    def warmup(self) -> list[Item]:
        raise NotImplementedError

    def op(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, output) -> str | None:
        """Why the output is wrong, or None when it passes."""
        raise NotImplementedError

    def reference(self, item: Item, output) -> str:
        """The polynomial content of an output, compared with the values
        recorded in reference.json."""
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        """The whole output; repeated ops on one input must agree on it."""
        return self.reference(None, output)

    def output_bytes(self, output) -> int:
        return 0


class VerifySmall(Workload):
    """``legfronts tests FRONT --format json`` minus process start and
    argparse: parse the text, analyze, serialize.

    Why: on fronts this small the skein trees are tiny and the time goes
    to orchestration: ``analyze`` sweeps the front about 50 times and
    recomputes Homfly, Kauffman and the census several times.  Computing
    each quantity once shows here; shrinking the skein tree barely does.
    """

    name = "verify-small"
    RANDOM_PER_PASS = 24
    PASS_S = 0.35

    def __init__(self, lf, seed, workdir):
        super().__init__(lf, seed, workdir)
        texts = [(name, lf.corpus.corpus_path(name).read_text()) for name in lf.corpus.corpus_names()]
        texts += [(f.name, lf.render_front(f)) for f in (families.torus(lf, n) for n in (1, 3, 5, 7))]
        self.fixed = [item for name, text in texts for item in self._items(name, text)]
        self.random = families.random_fronts(
            lf, self.rng, f"r{seed}.", 0, 6, max_events=14, max_strands=6)

    def _items(self, name, text):
        """The front as given and, for a link, with component 0 reversed."""
        yield Item(name, (text, name, ()))
        diagram = self.lf.parse_front(text, name=name)
        if self.lf.components(diagram).num_components > 1:
            yield Item(f"{name}~r0", (text, name, (0,)))

    def passes(self):
        while True:
            items = list(self.fixed)
            for _ in range(self.RANDOM_PER_PASS):
                f = next(self.random)
                items += self._items(f.name, self.lf.render_front(f))
            self.rng.shuffle(items)
            yield items

    def warmup(self):
        return self.fixed

    def op(self, item):
        text, name, reverse = item.args
        diagram = self.lf.fronts.parse_front(text, name=name)
        report = self.lf.analysis.analyze(diagram, reverse=reverse)
        # indent as in the CLI's JSON output
        return json.dumps(report.to_json(), indent=2, sort_keys=True)

    def check(self, item, output):
        return None if json.loads(output)["ok"] else "analyze reported FAIL"

    def reference(self, item, output):
        report = json.loads(output)
        two, ung = report["rutherford_two_graded"], report["rutherford_ungraded"]
        return json.dumps([two["homfly_slice"], two["ruling_polynomial"],
                           ung["kauffman_slice"], ung["ruling_polynomial"]])

    def fingerprint(self, output):
        return output


class SkeinDeep(Workload):
    """Homfly and Dubrovnik-Kauffman of one 11-13 crossing front per op.

    Why: about 95% of the time is inside the skein recursion, so shrinking
    the skein tree shows here, while compute-once should not move it: each
    polynomial is already computed once per op.  Each pass runs every
    fixed front twice and one fresh seeded random front.  The seeded share
    is small on purpose: the skein cost of random fronts of this size
    spans 7 ms to 2.2 s, so a larger share would move the figures by seed
    more than the bounds allow, and the median and tail would jump
    between the cost levels of the fixed fronts.
    """

    name = "skein-deep"
    FIXED_REPEATS = 2
    RANDOM_PER_PASS = 1
    PASS_S = 8.0

    def __init__(self, lf, seed, workdir):
        super().__init__(lf, seed, workdir)
        tref = families.torus(lf, 3)
        self.fixed = [
            Item("T(2,11)", (families.torus(lf, 11),)),
            Item("T(2,13)", (families.torus(lf, 13),)),
            Item("trefoil^#4", (families.power(lf, tref, 4),)),
            Item("T(2,5)#T(2,7)", (families.chain(lf, [families.torus(lf, 5), families.torus(lf, 7)]),)),
            Item("hopf^#3#trefoil^#2", (families.chain(lf, [families.hopf(lf)] * 3 + [tref] * 2),)),
        ]
        self.random = families.random_fronts(
            lf, self.rng, f"r{seed}.", 11, 13, max_events=30, max_strands=6)
        self._slices = {}

    def passes(self):
        while True:
            items = self.fixed * self.FIXED_REPEATS
            items += [Item(f.name, (f,)) for f in (next(self.random) for _ in range(self.RANDOM_PER_PASS))]
            self.rng.shuffle(items)
            yield items

    def warmup(self):
        return self.fixed[:1]

    def op(self, item):
        d = self.lf.skein.front_to_diagram(item.args[0])
        return self.lf.skein.homfly(d), self.lf.skein.kauffman_dubrovnik(d)

    def check(self, item, output):
        # Rutherford: the v^(tb+1) slices are the 2-graded and ungraded
        # ruling polynomials; the census is computed here, outside the timing
        if item.name not in self._slices:
            front = item.args[0]
            tb = self.lf.classical_invariants(front).tb
            cens = self.lf.census(front)
            self._slices[item.name] = (tb, cens.polynomials["two_graded"], cens.polynomials["ungraded"])
        tb, two, ung = self._slices[item.name]
        homfly, kauffman = output
        wrong = []
        if homfly.coefficient_of_v(tb + 1) != two:
            wrong.append("Homfly slice != 2-graded ruling polynomial")
        if kauffman.coefficient_of_v(tb + 1) != ung:
            wrong.append("Kauffman slice != ungraded ruling polynomial")
        return "; ".join(wrong) or None

    def reference(self, item, output):
        return json.dumps([poly.to_terms() for poly in output])


class CensusSum(Workload):
    """``connsum_check(A, B)`` on seeded connected-sum chains.

    Why: the polynomial-only use of the rulings layer, with no skein
    calls, so a state-merging ruling sweep shows here while compute-once
    and skein work should not move it.  Composites whose second summand
    contains a Hopf factor currently FAIL (the connected-sum orientation
    defect); they are kept so that the defect shows in ``failed``.
    """

    name = "census-sum"
    PAIRS_PER_PASS = 100
    PASS_S = 0.7
    MAX_RULINGS = 500  # cap on the composite's ungraded ruling count

    def __init__(self, lf, seed, workdir):
        super().__init__(lf, seed, workdir)
        self.factors = [
            lf.front("L1 L3 X2 X2 X2 R1 R1", name="trefoil"),
            families.torus(lf, 5),
            families.torus(lf, 7),
            families.hopf(lf),
            families.unknot(lf),
        ]
        # ungraded ruling counts multiply under connected sum, so the
        # composite's count is known from its factors before it is built
        self.rulings = {f.name: len(lf.enumerate_rulings(f)) for f in self.factors}
        self.fixed_warmup = [
            self._item([self.factors[0]], [self.factors[1]]),
            self._item([self.factors[3]], [self.factors[0]]),
            self._item([self.factors[2], self.factors[4]], [self.factors[0]]),
        ]
        self._polys = {}  # front text -> its ruling polynomials, for reference()

    def _item(self, fa, fb):
        a, b = families.chain(self.lf, fa), families.chain(self.lf, fb)
        return Item(f"{a.name} | {b.name}", (a, b))

    def _pair(self):
        while True:
            fa = [self.rng.choice(self.factors) for _ in range(self.rng.randint(1, 3))]
            fb = [self.rng.choice(self.factors) for _ in range(self.rng.randint(1, 3))]
            if math.prod(self.rulings[f.name] for f in fa + fb) <= self.MAX_RULINGS:
                return self._item(fa, fb)

    def passes(self):
        while True:
            yield [self._pair() for _ in range(self.PAIRS_PER_PASS)]

    def warmup(self):
        return self.fixed_warmup

    def op(self, item):
        return self.lf.analysis.connsum_check(*item.args)

    def check(self, item, output):
        if output.passed:
            return None
        return (f"connsum_check FAIL (counts {output.counts_ok}, polynomials "
                f"{output.polynomials_ok}, genus additive {output.genus_additive})")

    def reference(self, item, output):
        # The composite and the ruling polynomials of it and both summands,
        # computed here outside the timing; not the verdicts, which are
        # what a connsum fix changes.  A census that goes wrong the same
        # way on every front still multiplies, so only this digest sees it.
        polys = [self._polynomials(f) for f in (output.composite, *item.args)]
        return json.dumps([output.composite.name, str(output.composite), polys])

    def _polynomials(self, front):
        # a run has ~1400 distinct pairs but only ~270 distinct fronts
        key = str(front)
        if key not in self._polys:
            cens = self.lf.census(front)
            self._polys[key] = [cens.polynomials[c].to_terms() for c in self.lf.rulings.GRADING_FILTERS]
        return self._polys[key]

    def fingerprint(self, output):
        return (f"{output.composite.name}: {output.composite} {output.counts_ok} "
                f"{output.polynomials_ok} {output.genus_additive}")


class RulingsList(Workload):
    """``legfronts rulings FILE --format json --class C`` in process.

    Why: the same rulings layer used differently, with every ruling
    materialized and serialized, so a change that makes censuses lazy or
    sweeps instead of listing must not slow this one.  The CLI is measured
    here because its payload and JSON cost is real (T(2,21): 17,711
    rulings, 4.3 MB).  The inputs are fixed; the seed shuffles their order.
    """

    name = "rulings-list"
    CLASSES = ("ungraded", "two_graded")
    PASS_S = 5.2

    def __init__(self, lf, seed, workdir):
        super().__init__(lf, seed, workdir)
        importlib.import_module("legfronts.cli")
        tref = families.torus(lf, 3)
        fronts = {f"T2-{n}": families.torus(lf, n) for n in range(1, 22, 2)}
        fronts.update({f"trefoil-x{k}": families.power(lf, tref, k) for k in range(1, 8)})
        t5, t7 = families.torus(lf, 5), families.torus(lf, 7)
        fronts["T2-7xT2-7xT2-5"] = families.chain(lf, [t7, t7, t5])
        folder = workdir / "fronts"
        folder.mkdir(parents=True, exist_ok=True)
        self.items = []
        for stem, f in fronts.items():
            path = folder / f"{stem}.front"
            path.write_text(lf.render_front(f))
            self.items += [Item(f"{stem} --class {c}", (str(path), c)) for c in self.CLASSES]

    def passes(self):
        while True:
            items = list(self.items)
            self.rng.shuffle(items)
            yield items

    def warmup(self):
        return [item for item in self.items if item.name.startswith(("T2-5 ", "trefoil-x2 "))]

    def op(self, item):
        path, grading = item.args
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lf.cli.main(["rulings", path, "--format", "json", "--class", grading])
        return code, buf.getvalue()

    def check(self, item, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        data = json.loads(text)
        listed = len(data["rulings"])
        coefficient_sum = sum(t["c"] for t in data["polynomial"])
        if not listed == coefficient_sum == data["count"]:
            return f"listed {listed}, coefficient sum {coefficient_sum}, count {data['count']}"
        if data["class"] != item.args[1]:
            return f"class {data['class']!r} in the output"
        return None

    def reference(self, item, output):
        data = json.loads(output[1])
        return json.dumps([data["count"], data["polynomial"], data["polynomials_by_class"]])

    def fingerprint(self, output):
        return f"{output[0]}\n{output[1]}"

    def output_bytes(self, output):
        return len(output[1].encode())


WORKLOADS = {w.name: w for w in (VerifySmall, SkeinDeep, CensusSum, RulingsList)}
