"""Instance transformations: hardness gadgets and budget-preserving rewrites.

Three constructions:

* lift_iucap0_to_1: turns an iucap=0 instance into an equisatisfiable
  iucap=1 instance by pairing every element with a same-side dummy twin and
  replacing each edge with a 4-edge bundle; the unit budget doubles.
* double_binpack: scales items and bin size by 2, which preserves bin
  packing feasibility in both directions.
* binpack_to_pup_iucap2: embeds bin packing into PUP at iucap=2.  Each bin
  becomes a rigid biclique gadget that any solution must spread over exactly
  three mutually partnered units, leaving binSize free slots per side; each
  item becomes an indicator with a star of size-many sensors that must fit
  inside a single gadget's free slots.  The whole instance is satisfiable
  with 3 * bins units exactly when the packing exists.
"""

from __future__ import annotations

from .core import BinPackingInstance, Instance


def lift_iucap0_to_1(inst: Instance, units: int) -> tuple[Instance, int]:
    """Equisatisfiable lift from iucap 0 to iucap 1; the unit budget doubles.

    Every element x gains a same-side dummy twin d_x.  For each original
    edge (i, s) the lifted instance contains (i, s), (d_i, d_s), (i, d_s)
    and (d_i, s).  ucap is unchanged.  Raises when a dummy id would collide
    with an existing element id.
    """
    if inst.iucap != 0:
        raise ValueError("lift requires an instance with iucap = 0")
    if units < 1:
        raise ValueError("unit budget must be >= 1")
    dummy: dict[str, str] = {}
    for x in inst.elements:
        d = f"d_{x}"
        if d in inst.index:
            raise ValueError(f"dummy id {d!r} collides with an existing element")
        dummy[x] = d
    indicators = inst.indicators + tuple(dummy[i] for i in inst.indicators)
    sensors = inst.sensors + tuple(dummy[s] for s in inst.sensors)
    edges = list(inst.edges)
    for i, s in inst.edges:
        edges.append((dummy[i], dummy[s]))
        edges.append((i, dummy[s]))
        edges.append((dummy[i], s))
    lifted = Instance(indicators, sensors, tuple(edges), inst.ucap, 1)
    return lifted, 2 * units


def double_binpack(b: BinPackingInstance) -> BinPackingInstance:
    """Scale items and bin size by 2; feasibility is preserved both ways."""
    return BinPackingInstance(tuple(2 * n for n in b.items), 2 * b.bin_size, b.bins)


def binpack_to_pup_iucap2(b: BinPackingInstance) -> tuple[Instance, int]:
    """Embed bin packing into PUP with iucap=2 and ucap=binSize+1.

    Per item j of size n: indicator itemJ_i and sensors itemJ_s1..itemJ_sN,
    star-connected to the indicator.  Per bin m: (2*ucap)+1 indicators
    binM_i1.. and (2*ucap)+1 sensors binM_s1.., completely biconnected.
    Returns the instance and the exact unit budget 3 * bins: each gadget
    needs three full mutually partnered units with binSize spare slots per
    side, so the items fit exactly when the packing exists.
    """
    ucap = b.bin_size + 1
    iucap = 2
    indicators: list[str] = []
    sensors: list[str] = []
    edges: list[tuple[str, str]] = []
    for j, n in enumerate(b.items, start=1):
        ind = f"item{j}_i"
        indicators.append(ind)
        for t in range(1, n + 1):
            s = f"item{j}_s{t}"
            sensors.append(s)
            edges.append((ind, s))
    width = 2 * ucap + 1
    for m in range(1, b.bins + 1):
        gi = [f"bin{m}_i{t}" for t in range(1, width + 1)]
        gs = [f"bin{m}_s{t}" for t in range(1, width + 1)]
        indicators.extend(gi)
        sensors.extend(gs)
        edges.extend((a, c) for a in gi for c in gs)
    inst = Instance(tuple(indicators), tuple(sensors), tuple(edges), ucap, iucap)
    return inst, 3 * b.bins


# ===== one-line bin packing text format =====


def parse_binpack_line(text: str) -> BinPackingInstance:
    """Parse the one-line format ``items 2 2 3 ; binsize 5 ; bins 2``.

    The items field may be empty (``items ; binsize 2 ; bins 1``).
    """
    items: tuple[int, ...] | None = None
    bin_size: int | None = None
    bins: int | None = None
    for chunk in text.strip().split(";"):
        parts = chunk.split()
        if not parts:
            continue
        kw = parts[0]
        if kw == "items":
            if items is not None:
                raise ValueError("duplicate items field")
            try:
                items = tuple(int(p) for p in parts[1:])
            except ValueError:
                raise ValueError(f"non-integer item size in {chunk.strip()!r}") from None
        elif kw in ("binsize", "bins"):
            if len(parts) != 2:
                raise ValueError(f"{kw} takes exactly one integer")
            try:
                val = int(parts[1])
            except ValueError:
                raise ValueError(f"{kw} value {parts[1]!r} is not an integer") from None
            if kw == "binsize":
                if bin_size is not None:
                    raise ValueError("duplicate binsize field")
                bin_size = val
            else:
                if bins is not None:
                    raise ValueError("duplicate bins field")
                bins = val
        else:
            raise ValueError(f"unknown field {kw!r}")
    if items is None or bin_size is None or bins is None:
        raise ValueError("expected items, binsize and bins fields")
    return BinPackingInstance(items, bin_size, bins)


def emit_binpack_line(b: BinPackingInstance) -> str:
    items = " ".join(str(n) for n in b.items)
    head = f"items {items}" if items else "items"
    return f"{head} ; binsize {b.bin_size} ; bins {b.bins}\n"
