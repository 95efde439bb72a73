"""Deterministic workload generators with independently computed ground truth.

Each generator takes a seed and a scale (1.0 is the full workload) and
returns a `Workload`: the input files, the CLI arguments that run them, the
expected outputs computed in plain Python, and the trace spans that must
record calls. Nothing here imports the interpreter or the repository's
tests, so neither a program change nor a test edit can alter a workload or
its ground truth. The seed changes attribute values and which parts belong
to which category or group; it never changes the ground-truth formulas.

  replay-a        1,227-feature computer model as TVL, branch A plus `upf`
                  and `rmmf`: model edits (per-target copy and subtree scan).
  constraints-2k  branch-B output over 30% of the model's parts (432
                  features, 2,104 constraints) with bulk constraint edits
                  plus `upc` and `rmc`: constraint store.
  equijoin        440 parts over 22 parents and one two-variable join:
                  the resolver (194 k candidate pairs).

The last two are cut down from the case study's sizes (7,016 constraints;
1,100 parts) so that one CLI run takes 1-2 s rather than 6-20 s and a timed
run takes the median over many of them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

PRICING = ["Budget", "Low", "Mid", "High", "Ultra"]  # price categories 1..5
PERF_WINDOWS = [(40 * k, 40 * k + 39) for k in range(5)]
VPS = 42
MISCS = 30
FULL_PARTS = 1154
FULL_RATED = 600
JOIN_GROUP = 20
FULL_JOIN_GROUPS = 22
BULK_SCALE = 0.3  # share of the computer model's parts in constraints-2k

# spans every traced pass reaches, whatever the workload
COMMON_SPANS = ("tokens.tokenize", "parser.parse", "parser.validate_static",
                "resolver.resolve", "model.copy", "serializer.serialize",
                "tvl.export_tvl")


@dataclass
class Workload:
    name: str
    files: dict            # input file name -> text
    args: list             # CLI arguments, file names relative to the run directory
    outputs: tuple         # output file names the CLI writes
    size: int              # the quantity the growth exponents are taken over
    spans: tuple           # span names that must record calls when traced
    expected: dict = field(default_factory=dict)  # ground truth, see check()

    def check(self, outputs: dict) -> list:
        """Problems with the CLI's output texts; empty means correct."""
        problems = []
        for name in self.outputs:
            if name not in outputs:
                problems.append(f"{name}: missing")
        if problems:
            return problems
        fd = parse_fd(outputs[self.outputs[0]])
        if fd is None:
            return [f"{self.outputs[0]}: not in declaration syntax"]
        root, features, constraints = fd
        exp = self.expected
        if root != exp["root"]:
            problems.append(f"root is {root!r}, expected {exp['root']!r}")
        if len(features) != len(exp["features"]):
            problems.append(f"{len(features)} features, expected {len(exp['features'])}")
        bad = [n for n, f in exp["features"].items() if features.get(n) != f]
        if bad:
            problems.append(f"{len(bad)} features differ, first {bad[0]!r}: "
                            f"{features.get(bad[0])} != {exp['features'][bad[0]]}")
        problems += _compare_constraints("fd", constraints, exp["constraints"])
        groups = exp.get("one_group")
        if groups:
            sibs = {fd_sibling(outputs[self.outputs[0]], n) for n in groups}
            if len(sibs) != 1 or None in sibs:
                problems.append(f"{groups} are not one group: {sibs}")
        if len(self.outputs) > 1:
            tvl = parse_tvl(outputs[self.outputs[1]])
            if tvl is None:
                problems.append(f"{self.outputs[1]}: not in the TVL subset")
            else:
                blocks, tvl_constraints = tvl
                if blocks != len(exp["features"]):
                    problems.append(f"TVL has {blocks} feature blocks, "
                                    f"expected {len(exp['features'])}")
                problems += _compare_constraints("tvl", tvl_constraints,
                                                 exp["constraints"])
        return problems


def _compare_constraints(where: str, got: list, expected: list) -> list:
    if len(got) != len(expected):
        return [f"{where}: {len(got)} constraints, expected {len(expected)}"]
    if len(set(got)) != len(got):
        return [f"{where}: duplicate constraints"]
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))[:3]
        return [f"{where}: constraint set differs, missing e.g. {missing}"]
    return []


# -- output readers (plain Python, independent of the interpreter) ----------

_VALUE = r'(?:"[^"]*"|-?\d+(?:\.\d+)?|true|false)'
_ATTR_RE = re.compile(r' attribute ([a-z][A-Za-z0-9_]*) (' + _VALUE + ')')
_FEATURE_RE = re.compile(
    r'feature "([^"]*)" "([^"]*)" (mandatory|optional|alternative|or)'
    r'(?: to "([^"]*)")?((?: attribute [a-z][A-Za-z0-9_]* ' + _VALUE + ')*);$')
_ROOT_RE = re.compile(r'root "([^"]*)"((?: attribute [a-z][A-Za-z0-9_]* '
                      + _VALUE + ')*);$')
_CONSTRAINT_RE = re.compile(r'constraint "([^"]*)" (requires|excludes) "([^"]*)";$')


def _value(text: str):
    if text.startswith('"'):
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    return float(text) if "." in text else int(text)


def _attrs(text: str) -> tuple:
    return tuple((a, _value(v)) for a, v in _ATTR_RE.findall(text))


def parse_fd(text: str):
    """(root, {name: (parent, kind, attrs)}, [(left, kind, right)]) or None."""
    root, features, constraints = None, {}, []
    for line in text.splitlines():
        m = _FEATURE_RE.match(line)
        if m:
            if m.group(1) in features:
                return None
            features[m.group(1)] = (m.group(2), m.group(3), _attrs(m.group(5)))
            continue
        m = _CONSTRAINT_RE.match(line)
        if m:
            constraints.append(m.groups())
            continue
        m = _ROOT_RE.match(line)
        if m and root is None:
            root = m.group(1)
            continue
        return None
    if root is None:
        return None
    features[root] = (None, None, ())
    return root, features, constraints


def fd_sibling(text: str, name: str):
    m = re.search(r'^feature "' + re.escape(name) + r'" "[^"]*" \w+ to "([^"]*)"',
                  text, re.M)
    return m.group(1) if m else None


def parse_tvl(text: str):
    """(number of feature blocks, [(left, kind, right)]) or None."""
    blocks, constraints = 0, []
    for line in text.splitlines():
        s = line.strip()
        if re.fullmatch(r"(?:root )?[A-Za-z][A-Za-z0-9_]* \{", s):
            blocks += 1
        elif m := re.fullmatch(r"([A-Za-z]\w*) (requires|excludes) ([A-Za-z]\w*);", s):
            constraints.append(m.groups())
        elif not (s == "}" or s.startswith("group ")
                  or re.fullmatch(r"(int|real|bool|string) \w+ is .*;", s)):
            return None
    return blocks, constraints


# -- the computer model -----------------------------------------------------


@dataclass
class Part:
    name: str
    vp: str
    cat: int             # price category 1..5
    rating: int | None   # set on the rated parts only

    def attrs(self) -> tuple:
        a = (("priceCat", self.cat),)
        return a if self.rating is None else a + (("rating", self.rating),)


def computer_parts(rng: random.Random, scale: float) -> list:
    """Parts of the 1,227-feature computer model.

    Category sizes and the rating multiset are fixed by the part count; the
    seed only chooses which part gets which category and which are rated.
    """
    n = max(10, round(FULL_PARTS * scale))
    rated = max(10, round(FULL_RATED * scale))
    cats = [i % 5 + 1 for i in range(n)]
    ratings = [40 * (j % 5) + 20 for j in range(rated)] + [None] * (n - rated)
    rng.shuffle(cats)
    rng.shuffle(ratings)
    return [Part(f"Part{i:04d}", vp_name(i % VPS + 1), cats[i], ratings[i])
            for i in range(n)]


def vp_name(i: int) -> str:
    return f"VP{i:02d}"


def misc_name(i: int) -> str:
    return f"Misc{i:02d}"


def pricing(k: int) -> str:
    return f"Pricing{PRICING[k - 1]}"


def performance(k: int) -> str:
    return f"Performance{PRICING[k - 1]}"


def _base_features(parts: list) -> dict:
    features = {"Computer": (None, None, ())}
    for i in range(1, VPS + 1):
        features[vp_name(i)] = ("Computer", "mandatory", ())
    for p in parts:
        features[p.name] = (p.vp, "optional", p.attrs())
    for i in range(1, MISCS + 1):
        features[misc_name(i)] = (vp_name(i), "optional", (("extra", i),))
    return features


def computer_tvl(parts: list) -> str:
    children = {vp_name(i): [] for i in range(1, VPS + 1)}
    for p in parts:
        children[p.vp].append(p.name)
    for i in range(1, MISCS + 1):
        children[vp_name(i)].append(misc_name(i))
    lines = ["root Computer {",
             "  group allof { " + ", ".join(children) + " }", "}"]
    for vp, kids in children.items():
        lines += [vp + " {", "  group allof { "
                  + ", ".join("opt " + k for k in kids) + " }", "}"]
    for p in parts:
        lines.append(p.name + " {")
        lines += [f"  int {a} is {v};" for a, v in p.attrs()]
        lines.append("}")
    lines += [f"{misc_name(i)} {{\n  int extra is {i};\n}}" for i in range(1, MISCS + 1)]
    return "\n".join(lines) + "\n"


# -- replay-a ---------------------------------------------------------------


def branch_a_script() -> str:
    """Branch A of the case study, plus one `rmmf` and one `upf`."""
    lines = ['add feature "ConfigAssistant"\n'
             '  with attributes ( _parent = "Computer", _decomp = mandatory );']
    for k in range(5, 0, -1):
        anchor = "alternative" if k == 5 else f'alternative to "{pricing(5)}"'
        lines.append(
            f'add feature "{pricing(k)}"\n'
            f'  with attributes ( _parent = "ConfigAssistant", '
            f'_decomp = {anchor}, priceCategory = numeric : {k} );')
    for k in range(5, 0, -1):
        lines.append(f'updateall feature F\n  set _parent = "{pricing(k)}"\n'
                     f'  where F.priceCat = {k};')
    lines.append("removeall feature M where M.extra > 0;")
    for i in range(1, VPS + 1):
        lines.append(f'remove feature "{vp_name(i)}";')
    lines.append('update feature P\n'
                 '  set priceCategory = numeric : P.priceCategory * 10\n'
                 '  where P.priceCategory = 5;')
    return "\n".join(lines) + "\n"


def replay_a(seed: int, scale: float = 1.0) -> Workload:
    parts = computer_parts(random.Random(seed), scale)
    features = {"Computer": (None, None, ()),
                "ConfigAssistant": ("Computer", "mandatory", ())}
    for k in range(5, 0, -1):
        cat = 10 * k if k == 5 else k  # the trailing `upf` scales Ultra's
        features[pricing(k)] = ("ConfigAssistant", "alternative",
                                (("priceCategory", cat),))
    for p in parts:
        features[p.name] = (pricing(p.cat), "optional", p.attrs())
    return Workload(
        name="replay-a",
        files={"computer.tvl": computer_tvl(parts),
               "branch_a.feaf": branch_a_script()},
        args=["-t", "computer.tvl", "-c", "branch_a.feaf", "-o", "out.fd"],
        outputs=("out.fd",),
        size=len(parts),
        spans=COMMON_SPANS + ("tvl.import_tvl", "model.subtree",
                              "commands.addf", "commands.upmf", "commands.rmmf",
                              "commands.rmf", "commands.upf"),
        expected={"root": "Computer", "features": features, "constraints": [],
                  "one_group": [pricing(k) for k in range(1, 6)]},
    )


# -- constraints-2k ---------------------------------------------------------


def branch_b_output(parts: list) -> tuple:
    """The model branch B produces: its features and its constraints.

    Names are TVL identifiers so that the workload can write TVL. Every
    pricing feature excludes the parts of the other four categories, every
    performance feature the rated parts outside its rating window.
    """
    features = _base_features(parts)
    features["ConfigAssistant"] = ("Computer", "mandatory", ())
    features["CAPricing"] = ("ConfigAssistant", "mandatory", ())
    features["CAPerformance"] = ("ConfigAssistant", "mandatory", ())
    for k in range(5, 0, -1):
        features[pricing(k)] = ("CAPricing", "alternative", (("priceCategory", k),))
    for k in range(5, 0, -1):
        lo, hi = PERF_WINDOWS[k - 1]
        features[performance(k)] = ("CAPerformance", "alternative",
                                    (("perfMax", hi), ("perfMin", lo)))
    constraints = []
    for k in range(5, 0, -1):
        constraints += [(pricing(k), "excludes", p.name) for p in parts if p.cat != k]
    for k in range(5, 0, -1):
        lo, hi = PERF_WINDOWS[k - 1]
        constraints += [(performance(k), "excludes", p.name) for p in parts
                        if p.rating is not None and not lo <= p.rating <= hi]
    return features, constraints


def declarations_text(root: str, features: dict, constraints: list,
                      group_leaders: dict) -> str:
    lines = [f'root "{root}";']
    for name, (parent, kind, attrs) in features.items():
        if parent is None:
            continue
        decomp = kind
        if name in group_leaders:
            decomp += f' to "{group_leaders[name]}"'
        lines.append(f'feature "{name}" "{parent}" {decomp}'
                     + "".join(f" attribute {a} {v}" for a, v in attrs) + ";")
    lines += [f'constraint "{a}" {k} "{b}";' for a, k, b in constraints]
    return "\n".join(lines) + "\n"


def bulk_script(upc_from: str, upc_to: str, rmc_part: str) -> str:
    return "\n".join([
        # one price category's excludes out of PricingBudget
        "removeall constraint F excludes G\n"
        "  where F.priceCategory = 1 and G.priceCat = 2;",
        # another category's turned into requires
        "updateall constraint F excludes G\n  set constrainttype = requires\n"
        "  where F.priceCategory = 1 and G.priceCat = 3;",
        # PerformanceBudget requires every part rated inside its window
        "add constraint F requires G\n"
        "  where F.perfMin = 0 and G.rating >= F.perfMin and G.rating <= F.perfMax;",
        f'update constraint "{performance(1)}" requires "{upc_from}"\n'
        f'  set rightfeature = "{upc_to}";',
        f'remove constraint "{pricing(5)}" excludes "{rmc_part}";',
    ]) + "\n"


def constraints_2k(seed: int, scale: float = 1.0) -> Workload:
    parts = computer_parts(random.Random(seed), BULK_SCALE * scale)
    features, before = branch_b_output(parts)
    leaders = {pricing(k): pricing(5) for k in range(1, 6)}
    leaders.update({performance(k): performance(5) for k in range(1, 6)})
    low = [p.name for p in parts if p.rating == 20]
    mid = [p.name for p in parts if p.rating == 60]
    rmc_part = next(p.name for p in parts if p.cat == 1)

    cat_of = {p.name: p.cat for p in parts}
    after = [c for c in before if not (c[0] == pricing(1) and cat_of[c[2]] in (2, 3))]
    after_bulk = len(after) + len(low) + sum(p.cat == 3 for p in parts)
    after += [(pricing(1), "requires", p.name) for p in parts if p.cat == 3]
    after += [(performance(1), "requires", n) for n in low]
    after.remove((performance(1), "requires", low[0]))
    after.append((performance(1), "requires", mid[0]))
    after.remove((pricing(5), "excludes", rmc_part))
    return Workload(
        name="constraints-2k",
        files={"model.fd": declarations_text("Computer", features, before, leaders),
               "bulk.feaf": bulk_script(low[0], mid[0], rmc_part)},
        args=["-d", "model.fd", "-c", "bulk.feaf", "-o", "out.fd", "-ot", "out.tvl"],
        outputs=("out.fd", "out.tvl"),
        size=len(parts),
        spans=COMMON_SPANS + ("build.build_model", "model.add_constraint",
                              "model.remove_constraint", "commands.rmmc",
                              "commands.upmc", "commands.addc", "commands.upc",
                              "commands.rmc"),
        expected={"root": "Computer", "features": features, "constraints": after,
                  "constraints_before": len(before),
                  "constraints_after_bulk": after_bulk},
    )


# -- equijoin ---------------------------------------------------------------


def equijoin(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(seed)
    groups = max(2, round(FULL_JOIN_GROUPS * scale))
    members = [g for g in range(groups) for _ in range(JOIN_GROUP)]
    rng.shuffle(members)
    features = {"Join": (None, None, ())}
    for g in range(groups):
        features[f"G{g:02d}"] = ("Join", "mandatory", ())
    by_group = [[] for _ in range(groups)]
    for i, g in enumerate(members):
        name, w = f"J{i:04d}", rng.randrange(1000)
        features[name] = (f"G{g:02d}", "optional", (("w", w),))
        by_group[g].append((name, w))
    pairs = [(x, "requires", y) for group in by_group
             for x, wx in group for y, wy in group if wx > wy]
    return Workload(
        name="equijoin",
        files={"join.fd": declarations_text("Join", features, [], {}),
               "join.feaf": "add constraint X requires Y\n"
                            "  where X._parent = Y._parent and X.w > Y.w;\n"},
        args=["-d", "join.fd", "-c", "join.feaf", "-o", "out.fd"],
        outputs=("out.fd",),
        size=len(features),
        spans=COMMON_SPANS + ("build.build_model", "commands.addc"),
        expected={"root": "Join", "features": features, "constraints": pairs},
    )


GENERATORS = {"replay-a": replay_a, "constraints-2k": constraints_2k,
              "equijoin": equijoin}
