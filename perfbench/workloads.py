"""Seeded generators for the benchmark's four workloads.

Each generator draws per-object priorities and per-object iteration counts
from the workload seed, writes a `.smm` model text, and works out from the
drawn values alone (without running the VM) what every run of that text
must produce:

- the step count: each thread executes a fixed, data-independent number of
  actions, so the count is the same under all four configurations;
- the halt reason, always ``all-done``;
- the counter attribute of every receiving object. It is exact under
  ``rtc`` and, where handlers cannot overlap, under ``conc`` too. Where
  they can overlap, ``conc`` may legitimately lose updates (as in the
  bundled ``prodcons`` model), so only ``1 <= value <= expected`` holds.

The VM receives nothing but the generated text.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

CONFIGS = (("rtc", "rr"), ("rtc", "prio"), ("conc", "rr"), ("conc", "prio"))

# The handler every workload's receivers run: read a counter, add the
# argument, write it back, return the new value. Seven steps per event.
_BUMP_BODY = """\
  let d: Int = 0;
  loadparam d x;
  let v: Int = 0;
  loadattr v {attr};
  add v v d;
  setattr {attr} v;
  return {ret};
"""
_BUMP_STEPS = 7


@dataclass(frozen=True)
class Counter:
    """The expected value of one counter attribute in the final state.

    The owning object is found through ``via``: either a setup object's
    id (``via_attr`` is None) or the object a reference attribute of that
    setup object points at.
    """

    setup_oid: int
    via_attr: str | None
    attr: str
    value: int
    exact_under_conc: bool


@dataclass(frozen=True)
class Generated:
    text: str
    steps: int
    objects: int
    counters: tuple[Counter, ...] = field(default_factory=tuple)

    def check(self, doc: dict, runnables: str) -> list[str]:
        """Problems with a structured final state, against the hand-worked
        expectations; an empty list means the run is correct."""
        problems = []
        if doc.get("halt") != "all-done":
            problems.append(f"halt {doc.get('halt')!r}, expected 'all-done'")
        if doc.get("time") != self.steps:
            problems.append(f"{doc.get('time')} steps, expected {self.steps}")
        objects = doc.get("objects", [])
        if len(objects) != self.objects:
            problems.append(f"{len(objects)} objects, expected {self.objects}")
            return problems
        attrs = [dict((n, v) for n, v in o["attrs"]) for o in objects]
        for c in self.counters:
            oid = c.setup_oid
            if c.via_attr is not None:
                ref = attrs[oid].get(c.via_attr, {})
                if ref.get("kind") != "oid":
                    problems.append(f"object {oid}.{c.via_attr} is {ref}")
                    continue
                oid = ref["value"]
            got = attrs[oid].get(c.attr, {}).get("value")
            exact = runnables == "rtc" or c.exact_under_conc
            ok = got == c.value if exact else \
                isinstance(got, int) and 1 <= got <= c.value
            if not ok:
                want = c.value if exact else f"1..{c.value}"
                problems.append(f"object {oid}.{c.attr} = {got}, "
                                f"expected {want}")
        return problems


def _config_block(runnables: str, scheduler: str) -> str:
    return (f"config {{ runnables: {runnables}; scheduler: {scheduler}; "
            f"dispatch: single; medium: reliable; }}\n")


def gen_wide(rng: random.Random, size: str, runnables: str,
             scheduler: str) -> Generated:
    """N workers, each creating its own Node and bumping it K times with a
    call and a signal per iteration: 2N live objects, queues of at most 2,
    dispatch depth 1."""
    n = 64 if size == "full" else 4
    out = ["class Node { attr count: Int = 0; }\n",
           "op Node.bump(x: Int): Int {\n",
           _BUMP_BODY.format(attr="count", ret="v"), "}\n"]
    setup = []
    steps = 0
    counters = []
    # One or two iterations per worker, half of each: the seed decides
    # which worker does which, the total stays fixed.
    ks = [1 + i % 2 for i in range(n)]
    rng.shuffle(ks)
    for i, k in enumerate(ks):
        out.append(f"class W{i} {{ attr node: Node = null; }}\n"
                   f"op W{i}.go(): Void {{\n"
                   f"  let n: Node = null;\n  new n Node;\n  setattr node n;\n"
                   f"  let one: Int = 1;\n  let z: Int = 0;\n"
                   f"  let k: Int = {k};\n  let c: Bool = false;\n"
                   f"loop:\n"
                   f"  call n.bump(one) -> r;\n"
                   f"  send n.bump(one) prio {rng.randint(1, 4)};\n"
                   f"  sub k k one;\n  eq c k z;\n  ifnot c goto loop;\n"
                   f"  return void;\n}}\n")
        setup.append(f"  w{i}: W{i} active go prio {rng.randint(1, 4)};\n")
        # 7 prologue actions, 5 per iteration, the return; two bumps per
        # iteration on the node.
        steps += 8 + 5 * k + 2 * k * _BUMP_STEPS
        counters.append(Counter(i, "node", "count", 2 * k, False))
    out += ["setup {\n", *setup, "}\n", _config_block(runnables, scheduler)]
    return Generated("".join(out), steps, 2 * n, tuple(counters))


def gen_fanin(rng: random.Random, size: str, runnables: str,
              scheduler: str) -> Generated:
    """S senders linked to one passive Hub, each sending M signals: the hub
    receives S*M events in total, so one hub's queue or thread map grows."""
    s, base, band = (8, 200, 10) if size == "full" else (4, 5, 2)
    # Deviations from the base count come in +/- pairs, so the seed moves
    # signals between senders but the total stays fixed.
    half = [rng.randint(0, band) for _ in range(s // 2)]
    ms = [base + d for d in half] + [base - d for d in half]
    rng.shuffle(ms)
    out = ["class Hub { attr count: Int = 0; }\n",
           "op Hub.sig(x: Int): Void {\n",
           _BUMP_BODY.format(attr="count", ret="void"), "}\n"]
    setup = ["  hub: Hub passive;\n"]
    steps = 0
    total = 0
    for i, m in enumerate(ms):
        out.append(f"class S{i} {{ }}\n"
                   f"op S{i}.run(): Void {{\n"
                   f"  let h: Hub = null;\n  loadattr h hub;\n"
                   f"  let one: Int = 1;\n  let z: Int = 0;\n"
                   f"  let k: Int = {m};\n  let c: Bool = false;\n"
                   f"loop:\n"
                   f"  send h.sig(one) prio {rng.randint(1, 5)};\n"
                   f"  sub k k one;\n  eq c k z;\n  ifnot c goto loop;\n"
                   f"  return void;\n}}\n")
        setup.append(f"  s{i}: S{i} active run prio {rng.randint(1, 5)} "
                     f"links [hub];\n")
        # 6 prologue actions, 4 per iteration, the return; one bump each.
        steps += 7 + 4 * m + m * _BUMP_STEPS
        total += m
    out += ["setup {\n", *setup, "}\n", _config_block(runnables, scheduler)]
    counters = (Counter(0, None, "count", total, False),)
    return Generated("".join(out), steps, 1 + s, counters)


def gen_deep(rng: random.Random, size: str, runnables: str,
             scheduler: str) -> Generated:
    """A single-inheritance chain L0 <- ... <- L<depth> with one extra op
    per class. Two active leaf objects each create a leaf target and call
    ping on it K times; go and ping are defined on L0, so every dispatch
    walks the whole chain. Calls are synchronous and each target has one
    caller, so the counters are exact under conc as well."""
    depth, lo, hi = (100, 300, 340) if size == "full" else (6, 3, 6)
    leaf = f"L{depth}"
    out = ["class L0 { }\n"]
    for i in range(1, depth):
        out.append(f"class L{i} extends L{i - 1} {{ }}\n")
    out.append(f"class {leaf} extends L{depth - 1} {{\n"
               f"  attr hits: Int = 0;\n  attr peer: {leaf} = null;\n}}\n")
    for i in range(depth + 1):
        out.append(f"op L{i}.x{i}(): Void {{ return void; }}\n")
    out += ["op L0.ping(x: Int): Int {\n",
            _BUMP_BODY.format(attr="hits", ret="v"), "}\n"]
    setup = []
    steps = 0
    counters = []
    k0 = rng.randint(lo, hi)
    for j, k in enumerate((k0, lo + hi - k0)):
        out.append(f"op L0.go{j}(): Void {{\n"
                   f"  let t: {leaf} = null;\n  new t {leaf};\n"
                   f"  setattr peer t;\n"
                   f"  let one: Int = 1;\n  let z: Int = 0;\n"
                   f"  let k: Int = {k};\n  let c: Bool = false;\n"
                   f"loop:\n"
                   f"  call t.ping(one) -> r;\n"
                   f"  sub k k one;\n  eq c k z;\n  ifnot c goto loop;\n"
                   f"  return void;\n}}\n")
        setup.append(f"  a{j}: {leaf} active go{j} prio {rng.randint(1, 3)};\n")
        # 7 prologue actions, 4 per iteration, the return; one ping each.
        steps += 8 + 4 * k + k * _BUMP_STEPS
        counters.append(Counter(j, "peer", "hits", k, True))
    out += ["setup {\n", *setup, "}\n", _config_block(runnables, scheduler)]
    return Generated("".join(out), steps, 4, tuple(counters))


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    runnables: str
    scheduler: str

    def generate(self, seed: int, size: str = "full") -> Generated:
        """The model text for ``seed``; its config block names the
        workload's own configuration."""
        gen = _GENERATORS[self.family]
        # Workloads of one family draw the same values for the same seed,
        # so fanin-rtc and fanin-conc run the same model text.
        rng = random.Random(f"{self.family}:{size}:{seed}")
        return gen(rng, size, self.runnables, self.scheduler)


_GENERATORS = {"wide": gen_wide, "fanin": gen_fanin, "deep": gen_deep}

WORKLOADS = {w.name: w for w in (
    Workload("wide", "wide", "rtc", "rr"),
    Workload("fanin-rtc", "fanin", "rtc", "prio"),
    Workload("fanin-conc", "fanin", "conc", "prio"),
    Workload("deep", "deep", "conc", "rr"),
)}


def digest(final_text: str, trace_text: str) -> str:
    """The oracle digest of one run: its structured final state plus its
    rendered trace."""
    return hashlib.sha256(
        (final_text + "\n" + trace_text).encode("utf-8")).hexdigest()


def final_digest(final_text: str) -> str:
    return hashlib.sha256(final_text.encode("utf-8")).hexdigest()
