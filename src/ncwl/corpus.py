"""Packaged reference graph pairs with expected comparison verdicts.

The corpus is a set of edge-list files plus one manifest, one entry per
line:

    name | file1 | file2 | 1wl=<d|n> | nc1wl=<d|n> | 2wl=<d|n> | 3wl=<d|n> | iso=<t|f|x> | prov=<paper|derived|trivial>

``d``/``n`` abbreviate distinguished / not-distinguished, ``iso`` records
whether the pair is isomorphic (``x`` = too large for the brute-force
oracle). Entries are assertions, not cached outputs: the test suite re-runs
every method on every pair and checks the recorded verdicts.

Loading validates the expressiveness hierarchy on the recorded verdicts:
a pair distinguished by 1wl must be distinguished by nc1wl, a pair
distinguished by nc1wl must be distinguished by 3wl, the 2wl verdict must
equal the 1wl verdict, and isomorphic pairs must be distinguished by
nothing. The self-check suite holds its random pairs' verdicts to the same
rules, through the same function, with the brute-force oracle in place of
the recorded ``iso`` field.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files

from .graph import Graph, parse_edge_list
from .refine import METHODS, VERDICT_DISTINGUISHED, VERDICT_NOT_DISTINGUISHED

PROVENANCES = ("paper", "derived", "trivial")


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    file1: str
    file2: str
    text1: str
    text2: str
    #: method id -> "distinguished" | "not-distinguished"
    verdicts: dict[str, str]
    #: True / False, or None when the pair is too large for the oracle
    oracle_isomorphic: bool | None
    provenance: str

    def graphs(self) -> tuple[Graph, Graph]:
        return parse_edge_list(self.text1), parse_edge_list(self.text2)


_VERDICT_CODES = {"d": VERDICT_DISTINGUISHED, "n": VERDICT_NOT_DISTINGUISHED}
_ISO_CODES = {"t": True, "f": False, "x": None}


def _hierarchy_violations(split: dict[str, bool], isomorphic: bool) -> list[str]:
    """The hierarchy rules that one pair's verdicts (method id -> distinguished)
    break, in order; ``isomorphic`` says whether the pair is isomorphic."""
    problems = []
    if split["1wl"] and not split["nc1wl"]:
        problems.append("1wl distinguished but nc1wl not")
    if split["nc1wl"] and not split["3wl"]:
        problems.append("nc1wl distinguished but 3wl not")
    if split["2wl"] != split["1wl"]:
        problems.append("2wl verdict must equal 1wl verdict")
    if isomorphic and any(split.values()):
        problems.append("isomorphic pair marked distinguished")
    return problems


def _validate(entry: CorpusEntry) -> None:
    split = {m: v == VERDICT_DISTINGUISHED for m, v in entry.verdicts.items()}
    problems = _hierarchy_violations(split, entry.oracle_isomorphic is True)
    if problems:
        raise CorpusError(f"{entry.name}: {problems[0]}")
    if entry.provenance not in PROVENANCES:
        raise CorpusError(f"{entry.name}: unknown provenance {entry.provenance!r}")


def load_corpus(root=None) -> list[CorpusEntry]:
    """Parse and validate the manifest; ``root`` defaults to the packaged data.

    ``root`` may be any path-like or importlib traversable holding
    ``manifest.txt`` and the referenced graph files.
    """
    if root is None:
        root = files("ncwl") / "corpus_data"
    try:
        manifest = (root / "manifest.txt").read_text(encoding="utf-8")
    except (OSError, FileNotFoundError) as exc:
        raise CorpusError(f"cannot read corpus manifest: {exc}") from exc

    entries: list[CorpusEntry] = []
    for lineno, raw in enumerate(manifest.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 9:
            raise CorpusError(f"manifest line {lineno}: expected 9 fields, got {len(fields)}")
        name, file1, file2 = fields[0], fields[1], fields[2]
        verdicts: dict[str, str] = {}
        for field, method in zip(fields[3:7], METHODS):
            key, _, code = field.partition("=")
            if key != method or code not in _VERDICT_CODES:
                raise CorpusError(f"manifest line {lineno}: bad verdict field {field!r}")
            verdicts[method] = _VERDICT_CODES[code]
        iso_key, _, iso_code = fields[7].partition("=")
        if iso_key != "iso" or iso_code not in _ISO_CODES:
            raise CorpusError(f"manifest line {lineno}: bad iso field {fields[7]!r}")
        prov_key, _, prov = fields[8].partition("=")
        if prov_key != "prov":
            raise CorpusError(f"manifest line {lineno}: bad prov field {fields[8]!r}")
        try:
            text1 = (root / file1).read_text(encoding="utf-8")
            text2 = (root / file2).read_text(encoding="utf-8")
        except (OSError, FileNotFoundError) as exc:
            raise CorpusError(f"manifest line {lineno}: missing graph file: {exc}") from exc
        entry = CorpusEntry(
            name=name,
            file1=file1,
            file2=file2,
            text1=text1,
            text2=text2,
            verdicts=verdicts,
            oracle_isomorphic=_ISO_CODES[iso_code],
            provenance=prov,
        )
        _validate(entry)
        entries.append(entry)
    if not entries:
        raise CorpusError("corpus manifest contains no entries")
    return entries
