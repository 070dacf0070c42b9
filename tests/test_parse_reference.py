"""parse_instance against the parser that checked every id and edge itself,
on generated texts with comments, blank lines and injected faults."""

import random

from pupsolver import Instance, ParseError, parse_instance
from pupsolver.core import content_lines


def _reference_parse_instance(text: str) -> Instance:
    """The parser as it was before Instance became the one checker, kept as its
    oracle: every check runs line by line, so the first line at fault is reported."""
    ucap: int | None = None
    iucap: int | None = None
    indicators: list[str] = []
    sensors: list[str] = []
    side: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()

    for lineno, parts in content_lines(text):
        kw = parts[0]
        if kw in ("ucap", "iucap"):
            if len(parts) != 2:
                raise ParseError(lineno, f"{kw} takes exactly one integer")
            try:
                val = int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"{kw} value {parts[1]!r} is not an integer") from None
            if kw == "ucap":
                if ucap is not None:
                    raise ParseError(lineno, "duplicate ucap directive")
                if val < 1:
                    raise ParseError(lineno, "ucap must be >= 1")
                ucap = val
            else:
                if iucap is not None:
                    raise ParseError(lineno, "duplicate iucap directive")
                if val < 0:
                    raise ParseError(lineno, "iucap must be >= 0")
                iucap = val
        elif kw in ("indicator", "sensor"):
            if len(parts) != 2:
                raise ParseError(lineno, f"{kw} takes exactly one id")
            tok = parts[1]
            if tok in side:
                raise ParseError(lineno, f"duplicate declaration of {tok!r}")
            side[tok] = kw
            (indicators if kw == "indicator" else sensors).append(tok)
        elif kw == "edge":
            if len(parts) != 3:
                raise ParseError(lineno, "edge takes an indicator id and a sensor id")
            a, b = parts[1], parts[2]
            for tok in (a, b):
                if tok not in side:
                    raise ParseError(lineno, f"edge references undeclared id {tok!r}")
            if side[a] != "indicator":
                raise ParseError(lineno, f"{a!r} is a sensor, edges run indicator to sensor")
            if side[b] != "sensor":
                raise ParseError(lineno, f"{b!r} is an indicator, edges run indicator to sensor")
            if (a, b) in edge_seen:
                raise ParseError(lineno, f"duplicate edge {a} {b}")
            edge_seen.add((a, b))
            edges.append((a, b))
        else:
            raise ParseError(lineno, f"unknown directive {kw!r}")

    if ucap is None:
        raise ParseError(None, "missing ucap directive")
    if iucap is None:
        raise ParseError(None, "missing iucap directive")
    return Instance(tuple(indicators), tuple(sensors), tuple(edges), ucap, iucap)


def _reference_adjacency(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """The adjacency as the lazy property built it from the edge list."""
    adj: list[list[int]] = [[] for _ in inst.elements]
    for a, b in inst.edges:
        i, j = inst.index[a], inst.index[b]
        adj[i].append(j)
        adj[j].append(i)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


FAULTS = (
    "duplicate-declaration", "undeclared-id", "wrong-side", "duplicate-edge",
    "late-declaration", "bad-token", "bad-integer", "unknown-directive", "wrong-arity",
)


class _Text:
    """Instance text as entries placed at a position in [0, 1): [position,
    line, faulty, ids].  Each edge sits after both of its declarations."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.entries: list[list] = []
        self.touched: set[str] = set()  # ids and entry lines a fault already uses
        n_ind, n_sen = rng.randint(0, 5), rng.randint(0, 5)
        self.decl: dict[str, list] = {}
        for kw, prefix, n in (("indicator", "i", n_ind), ("sensor", "s", n_sen)):
            for k in range(n):
                tok = f"{prefix}{k}"
                self.decl[tok] = self.add(rng.random(), f"{kw} {tok}", tok)
        self.edges: list[list] = []
        for i in range(n_ind):
            for s in range(n_sen):
                if rng.random() < 0.4:
                    a, b = f"i{i}", f"s{s}"
                    at = max(self.decl[a][0], self.decl[b][0])
                    self.edges.append(self.add(rng.uniform(at, 1), f"edge {a} {b}", a, b))
        self.caps = [self.add(rng.random(), f"ucap {rng.randint(1, 3)}"),
                     self.add(rng.random(), f"iucap {rng.randint(0, 2)}")]
        for _ in range(rng.randint(0, 4)):
            self.add(rng.random(), rng.choice(("", "   ", "# a comment", "\t# indented")))
        for entry in self.entries[:]:
            if rng.random() < 0.1:  # a trailing comment; tokens end at the #
                entry[1] += rng.choice(("  # trailing", "#x y z"))

    def add(self, at: float, line: str, *ids: str) -> list:
        entry = [at, line, False, ids]
        self.entries.append(entry)
        return entry

    def render(self) -> tuple[str, set[int]]:
        """The text, and the line numbers of the lines at fault."""
        lines, faulty = [], set()
        for lineno, (_, line, bad, _) in enumerate(sorted(self.entries, key=lambda e: e[0]), 1):
            lines.append(line)
            if bad:
                faulty.add(lineno)
        return "\n".join(lines) + self.rng.choice(("\n", "", "\n\n")), faulty

    def fresh(self, pool: list[list]) -> list[list]:
        return [e for e in pool if not self.touched.intersection(e[3]) and id(e) not in self.touched]

    def inject(self, kind: str) -> bool:
        """Break the text in one way; False when it has nothing to break that way."""
        rng = self.rng
        decls = self.fresh(list(self.decl.values()))
        edges = self.fresh(self.edges)
        if kind == "duplicate-declaration":
            if not decls:
                return False
            orig = rng.choice(decls)
            tok = orig[3][0]
            dup = self.add(0.0, f"{rng.choice(('indicator', 'sensor'))} {tok}", tok)
            if rng.random() < 0.5:  # below the first declaration: the copy is at fault
                dup[0], dup[2] = rng.uniform(orig[0], 1), True
            else:  # just above it: the first declaration becomes the second
                dup[0], orig[2] = orig[0] - 1e-12, True
            self.touched.add(tok)
        elif kind == "undeclared-id":
            # the declared endpoint, if any, may be on either side: an undeclared
            # id is reported before a wrong side
            name = f"x{len(self.entries)}"
            known = rng.choice([t for t in self.decl if t not in self.touched] or [name])
            a, b = rng.choice(((known, name), (name, known), (name, name + "s")))
            at = max((self.decl[t][0] for t in (a, b) if t in self.decl), default=0.0)
            self.add(rng.uniform(at, 1), f"edge {a} {b}", a, b)[2] = True
            self.touched.update((a, b))
        elif kind == "wrong-side":
            if len(decls) < 2:
                return False
            a, b = (e[3][0] for e in rng.sample(decls, 2))
            if a[0] == "i" and b[0] == "s":
                a, b = b, a
            at = max(self.decl[a][0], self.decl[b][0])
            self.add(rng.uniform(at, 1), f"edge {a} {b}", a, b)[2] = True
            self.touched.update((a, b))
        elif kind == "duplicate-edge":
            if not edges:
                return False
            orig = rng.choice(edges)
            self.add(rng.uniform(orig[0], 1), orig[1].split("#")[0], *orig[3])[2] = True
            self.touched.update(orig[3])
        elif kind == "late-declaration":
            used = [d for d in decls if any(d[3][0] in e[3] for e in self.edges)]
            if not used:
                return False
            d = rng.choice(used)
            tok = d[3][0]
            uses = sorted(e[0] for e in self.edges if tok in e[3])
            d[0] = rng.uniform(uses[0], 1)
            for e in self.edges:
                if tok in e[3] and e[0] < d[0]:
                    e[2] = True
            self.touched.add(tok)
        elif kind == "bad-token":
            pool = decls + edges
            if not pool:
                return False
            entry = rng.choice(pool)
            tok = rng.choice(entry[3])
            bad = rng.choice((tok[:1] + rng.choice(("\xa0", "　", "\t", " ")) + tok[1:], "#" + tok))
            words = entry[1].split("#")[0].split()
            entry[1] = " ".join(bad if w == tok else w for w in words)
            entry[2] = True
            self.touched.update(entry[3])
        elif kind == "bad-integer":
            entry = rng.choice(self.fresh(self.caps) or [None])
            if entry is None:
                return False
            kw = entry[1].split()[0]
            entry[1] = f"{kw} {rng.choice(('x', '1.5', '2a', '0' if kw == 'ucap' else '-1'))}"
            entry[2] = True
            self.touched.add(id(entry))
        elif kind == "unknown-directive":
            line = rng.choice(("frobnicate x", "Indicator i0", "edges i0 s0", "ucap: 1"))
            self.add(rng.random(), line)[2] = True
        else:  # wrong-arity
            pool = decls + edges + self.fresh(self.caps)
            if not pool:
                return False
            entry = rng.choice(pool)
            words = entry[1].split("#")[0].split()
            entry[1] = " ".join(words[:-1] if rng.random() < 0.5 else words + ["extra"])
            entry[2] = True
            self.touched.update(entry[3])
            self.touched.add(id(entry))
        return True


def _error(text: str, parse) -> tuple[int | None, str] | None:
    try:
        parse(text)
    except ParseError as err:
        return err.lineno, str(err)
    return None


def test_parse_matches_reference():
    """Valid texts give an equal Instance and adjacency.  With one fault, the
    error (line and message) is the reference's.  With two, the reported line
    holds one of them: parse_instance reports the first grammar fault in file
    order, else the first fault Instance finds (duplicate id, bad edge,
    repeated edge), else the first edge that names an id declared below it."""
    rng = random.Random(1616)
    singles = dict.fromkeys(FAULTS, 0)
    valid = multi = 0
    for _ in range(4000):
        text = _Text(rng)
        kinds = [rng.choice(FAULTS) for _ in range(rng.choice((0, 0, 1, 1, 1, 2)))]
        injected = [k for k in kinds if text.inject(k)]
        source, faulty = text.render()
        got, want = _error(source, parse_instance), _error(source, _reference_parse_instance)
        if not injected:
            assert got is None and want is None, source
            inst, ref = parse_instance(source), _reference_parse_instance(source)
            assert inst == ref and inst.elements == ref.elements
            assert inst.adjacency == _reference_adjacency(ref)
            valid += 1
        elif len(injected) == 1:
            assert want is not None and want[0] in faulty, source
            assert got == want, source
            singles[injected[0]] += 1
        else:
            assert got is not None and got[0] in faulty, source
            multi += 1
    assert min(singles.values()) >= 100, singles
    assert valid >= 1000 and multi >= 400
