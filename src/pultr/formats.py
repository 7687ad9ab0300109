"""Frozen text formats: edge-list graphs, template files, witness maps and
DOT export.  See docs/formats.md for the grammar.

Graph files: a header line `u N` (undirected) or `d N` (directed), then
one `a b` pair per line; `#` starts a comment.  Undirected files list
each edge once.  Parsing is tolerant of duplicates and arc order;
serialization is canonical (sorted, deduplicated), so
serialize(parse(text)) is the canonical rendering of text and
parse(serialize(g)) == g.
"""

from __future__ import annotations

from importlib import resources

from .errors import ParseError
from .functors import PultrTemplate
from .graphs import Digraph, Graph, as_graph
from .engine import HomWitness


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_graph(text):
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty graph text")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("u", "d"):
        raise ParseError(f"expected header 'u N' or 'd N', got {header!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad order {parts[1]!r}", lineno) from None
    if n < 0:
        raise ParseError(f"negative order {n}", lineno)
    directed = parts[0] == "d"
    pairs = []
    for lineno, line in lines[1:]:
        bits = line.split()
        if len(bits) != 2:
            raise ParseError(f"expected 'a b', got {line!r}", lineno)
        try:
            a, b = int(bits[0]), int(bits[1])
        except ValueError:
            raise ParseError(f"bad vertex in {line!r}", lineno) from None
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"vertex out of range in {line!r}", lineno)
        pairs.append((a, b))
    if directed:
        return Digraph(n, pairs)
    return Graph(n, pairs)


def serialize_graph(g):
    if isinstance(g, Graph) or g.is_symmetric:
        g = as_graph(g)
        lines = [f"u {g.n}"]
        lines += [f"{a} {b}" for a, b in sorted(g.edges())]
    else:
        lines = [f"d {g.n}"]
        lines += [f"{a} {b}" for a, b in sorted(g.arcs())]
    return "\n".join(lines) + "\n"


def to_dot(g, name="G"):
    if isinstance(g, Graph) or g.is_symmetric:
        g = as_graph(g)
        body = "".join(f"  {a} -- {b};\n" for a, b in sorted(g.edges()))
        return f"graph {name} {{\n{body}}}\n"
    body = "".join(f"  {a} -> {b};\n" for a, b in sorted(g.arcs()))
    return f"digraph {name} {{\n{body}}}\n"


# ---------------------------------------------------------------------------
# template files
# ---------------------------------------------------------------------------

_SECTIONS = ("P", "Q", "eps1", "eps2", "sym")


def parse_template(text, name="template"):
    """Template file: optional `name: X` line, then sections `P:`, `Q:`
    (edge-list graphs), `eps1:`, `eps2:` and optional `sym:` holding
    `a -> b` map lines."""
    sections = {}
    current = None
    tname = name
    for lineno, line in _content_lines(text):
        if line.lower().startswith("name:"):
            tname = line.split(":", 1)[1].strip()
            continue
        if line.endswith(":") and line[:-1] in _SECTIONS:
            current = line[:-1]
            if current in sections:
                raise ParseError(f"duplicate section {current!r}", lineno)
            sections[current] = []
            continue
        if current is None:
            raise ParseError(f"content before any section: {line!r}", lineno)
        sections[current].append((lineno, line))
    for required in ("P", "Q", "eps1", "eps2"):
        if required not in sections:
            raise ParseError(f"missing section {required!r}")
    p = _parse_section_graph(sections["P"])
    q = _parse_section_graph(sections["Q"])
    eps1 = _parse_map(sections["eps1"], p.n, q.n)
    eps2 = _parse_map(sections["eps2"], p.n, q.n)
    sym = None
    if "sym" in sections:
        sym = _parse_map(sections["sym"], q.n, q.n)
    return PultrTemplate(
        name=tname, p=p, q=q, eps1=eps1, eps2=eps2, symmetry=sym
    )


def _parse_section_graph(entries):
    text = "\n".join(line for _lineno, line in entries)
    try:
        return parse_graph(text)
    except ParseError as e:
        # re-anchor to the original file lines
        offset = entries[0][0] - 1 if entries else 0
        raise ParseError(str(e.args[0]), (e.line or 0) + offset) from None


def _parse_map(entries, dom, cod):
    values = {}
    for lineno, line in entries:
        parts = [p.strip() for p in line.split("->")]
        if len(parts) != 2:
            raise ParseError(f"expected 'a -> b', got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad vertex in {line!r}", lineno) from None
        if not 0 <= a < dom:
            raise ParseError(f"map source {a} out of range", lineno)
        if not 0 <= b < cod:
            raise ParseError(f"map target {b} out of range", lineno)
        if a in values:
            raise ParseError(f"duplicate map entry for {a}", lineno)
        values[a] = b
    missing = [a for a in range(dom) if a not in values]
    if missing:
        raise ParseError(f"map misses sources {missing}")
    return tuple(values[a] for a in range(dom))


def serialize_template(t):
    out = [f"name: {t.name}"]
    out.append("P:")
    out.append(serialize_graph(t.p).rstrip("\n"))
    out.append("Q:")
    out.append(serialize_graph(t.q).rstrip("\n"))
    out.append("eps1:")
    out += [f"{a} -> {b}" for a, b in enumerate(t.eps1)]
    out.append("eps2:")
    out += [f"{a} -> {b}" for a, b in enumerate(t.eps2)]
    if t.symmetry is not None:
        out.append("sym:")
        out += [f"{a} -> {b}" for a, b in enumerate(t.symmetry)]
    return "\n".join(out) + "\n"


def load_template(name_or_path):
    """Load a shipped template by name, or any template file by path."""
    text = None
    if "/" not in name_or_path and "." not in name_or_path:
        ref = resources.files("pultr").joinpath(
            f"templates/{name_or_path}.tmpl"
        )
        if ref.is_file():
            text = ref.read_text()
    if text is None:
        with open(name_or_path) as fh:
            text = fh.read()
    return parse_template(text, name=name_or_path)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def serialize_witness(w):
    lines = [f"hom {w.source_order} {w.target_order}"]
    lines += [f"{u} {v}" for u, v in enumerate(w.mapping)]
    return "\n".join(lines) + "\n"


def parse_witness(text):
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty witness text")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "hom":
        raise ParseError(f"expected header 'hom N M', got {header!r}", lineno)
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError("bad witness header", lineno) from None
    mapping = {}
    for lineno, line in lines[1:]:
        bits = line.split()
        if len(bits) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(bits[0]), int(bits[1])
        except ValueError:
            raise ParseError(f"bad vertex in {line!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < m):
            raise ParseError("witness entry out of range", lineno)
        if u in mapping:
            raise ParseError(f"duplicate witness entry for {u}", lineno)
        mapping[u] = v
    if len(mapping) != n:
        raise ParseError("witness does not cover the source")
    return HomWitness(n, m, tuple(mapping[u] for u in range(n)))
