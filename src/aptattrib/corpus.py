"""Report corpora: loading, labeling, family-disjoint splitting, and synthesis.

_parse_json here is the package's one JSON reader: the config, every
manifest line and the vocabulary pass through it. _check_setting is the one
type rule for settings: the CLI applies it to each config value when the file
is loaded, and every config dataclass to each of its fields when it is built.
It holds the one seed rule too: every seed, the root seed and each config
dataclass's seed field, is an integer in [0, 2**64).
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass, fields
from itertools import compress
from pathlib import Path, PurePath
from typing import Iterable

import numpy as np


class CorpusError(ValueError):
    """Invalid corpus input: bad manifest, bad labels, bad split arguments."""


@dataclass(frozen=True)
class LabeledReport:
    """One sandbox report: raw text plus optional nation and family labels."""

    id: str
    raw_text: str
    nation: str | None = None
    family: str | None = None


class Corpus:
    """An ordered, immutable collection of labeled reports."""

    def __init__(self, reports: Iterable[LabeledReport]):
        self.reports: tuple[LabeledReport, ...] = tuple(reports)
        seen: set[str] = set()
        for r in self.reports:
            if not r.id:
                raise CorpusError("report with empty id")
            if r.id in seen:
                raise CorpusError(f"duplicate report id {r.id!r}")
            seen.add(r.id)
        self.families: frozenset[str] = frozenset(
            r.family for r in self.reports if r.family is not None
        )

    def __len__(self) -> int:
        return len(self.reports)


@dataclass(frozen=True)
class SplitResult:
    train: Corpus
    validation: Corpus
    test: Corpus


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the deterministic synthetic report generator.

    Every report of nation n includes each of that nation's signature tokens
    independently with probability p_nation, each of its family's signature
    tokens with probability p_family, then uniform noise-pool draws up to
    tokens_per_report total tokens.

    The stream contract: one generator, seeded with seed, serves the reports
    in corpus order. Per report it makes the nation draws, then the family
    draws, then the noise draws, one array call each; the output bytes
    depend on that order. noise_pool_size is at most 2**63, the largest
    bound the generator draws under.
    """

    nations: int = 2
    families_per_nation: int = 2
    reports_per_family: int = 400
    nation_sig_size: int = 30
    family_sig_size: int = 20
    noise_pool_size: int = 500
    tokens_per_report: int = 120
    p_nation: float = 0.6
    p_family: float = 0.6
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        for name, kind in _field_types(SynthSpec).items():
            if kind is int and getattr(self, name) < 0:
                raise CorpusError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name, value in (("p_nation", self.p_nation), ("p_family", self.p_family)):
            if not 0.0 <= value <= 1.0:
                raise CorpusError(f"{name} must be in [0,1], got {value}")
        if self.noise_pool_size > 2**63:
            raise CorpusError(f"noise_pool_size must be <= 2**63, got {self.noise_pool_size}")


def _parse_json(raw: bytes, error: type[ValueError], where: str):
    """Decode raw strictly as UTF-8, then parse it as JSON.

    The one JSON reader for input files. Bytes that are not UTF-8, text that
    is not JSON, and nesting too deep to parse all raise error naming where.
    """
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON ({exc})") from exc


# The kind of every seed: an integer in [0, 2**64).
_SEED = "seed"

# kind -> (the types its values may have, how a message names it)
_KINDS = {
    _SEED: ((int, np.integer), "an unsigned 64-bit integer"),
    float: ((int, float, np.integer, np.floating), "a number"),
    int: ((int, np.integer), "an integer"),
    str: ((str,), "a string"),
    list: ((list,), "a list of integers"),
}


def _show(value) -> str:
    """value as JSON (repr when it is not JSON), cut to at most 80 characters."""
    try:
        text = json.dumps(value)
    except (TypeError, ValueError, RecursionError):
        text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _field_types(cls) -> dict[str, type | str]:
    """A config dataclass's field kinds: _SEED for its seed, else its default's type."""
    return {f.name: _SEED if f.name == "seed" else type(f.default) for f in fields(cls)}


def _check_setting(where: str, kind: type | str, value) -> None:
    """Reject a value that is not of kind, or a float that is not finite.

    A float setting also takes an integer, numpy integer and float scalars
    count as their Python kinds, a bool is never a valid value, a list holds
    Python integers, and a seed lies in [0, 2**64).
    """
    types, name = _KINDS[kind]
    if (
        not isinstance(value, types)
        or isinstance(value, bool)
        or (kind is list and any(type(v) is not int for v in value))
        or (kind is _SEED and not 0 <= value < 2**64)
    ):
        raise ValueError(f"{where} must be {name}, got {_show(value)}")
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value}")


def _check_fields(config) -> None:
    """Apply _check_setting to every field of a config dataclass, named by the field."""
    for name, kind in _field_types(type(config)).items():
        _check_setting(name, kind, getattr(config, name))


def _resolves_under(real_root: str, path: str) -> bool:
    """Whether path, with every symlink followed, lies in the resolved directory real_root."""
    return os.path.commonpath((real_root, os.path.realpath(path))) == real_root


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Load a corpus from a JSON Lines manifest; report paths are relative to it."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise CorpusError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    real_base = os.path.realpath(base)
    folder_inside: dict[str, bool] = {}
    reports: list[LabeledReport] = []
    # bytes.splitlines breaks at \n, \r\n and \r, as text-mode line reading does.
    for lineno, line in enumerate(manifest_path.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        where = f"manifest {manifest_path} line {lineno}"
        entry = _parse_json(line, CorpusError, where)
        if not isinstance(entry, dict) or "id" not in entry or "path" not in entry:
            raise CorpusError(f"{where}: expected object with id and path")
        for key in ("id", "path"):
            if not isinstance(entry[key], str) or not entry[key]:
                raise CorpusError(
                    f"{where}: {key} must be a non-empty string, got {_show(entry[key])}"
                )
        for key in ("nation", "family"):
            if not isinstance(entry.get(key), (str, type(None))):
                raise CorpusError(
                    f"{where}: {key} must be a string or null, got {_show(entry[key])}"
                )
        path = PurePath(entry["path"])
        if path.is_absolute() or ".." in path.parts:
            raise CorpusError(f"{where}: path {_show(str(path))} leaves the manifest's directory")
        report_path = os.path.join(base, path)
        # A symlink can still lead out: each report's folder is resolved once,
        # and a report that is itself a symlink is resolved on its own.
        folder = os.path.dirname(report_path)
        if folder not in folder_inside:
            folder_inside[folder] = _resolves_under(real_base, folder)
        try:
            mode = os.lstat(report_path).st_mode
        except OSError:
            mode = 0
        if stat.S_ISLNK(mode):
            inside = _resolves_under(real_base, report_path)
            regular = os.path.isfile(report_path)
        else:
            inside, regular = folder_inside[folder], stat.S_ISREG(mode)
        if not inside:
            raise CorpusError(
                f"{where}: path {_show(str(path))} resolves outside the manifest's directory"
            )
        if not regular:
            raise CorpusError(f"{where}: report file not found: {report_path}")
        # Non-UTF-8 bytes become replacement chars, which tokenize as delimiters.
        with open(report_path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        reports.append(
            LabeledReport(
                id=entry["id"],
                raw_text=text,
                nation=entry.get("nation"),
                family=entry.get("family"),
            )
        )
    return Corpus(reports)


def family_disjoint_split(
    corpus: Corpus, test_families: set[str], val_per_family: int
) -> SplitResult:
    """Split so that no family is shared between (train + validation) and test.

    All reports of a test family go to test; from each remaining family the
    first val_per_family reports (by corpus order) go to validation, the rest
    to train.
    """
    if val_per_family < 0:
        raise CorpusError(f"val_per_family must be >= 0, got {val_per_family}")
    unknown = set(test_families) - set(corpus.families)
    if unknown:
        raise CorpusError(f"test families not present in corpus: {sorted(unknown)}")
    for r in corpus.reports:
        if r.family is None:
            raise CorpusError(f"report {r.id!r} has no family label")
    train_families = set(corpus.families) - set(test_families)
    if corpus.families and not train_families:
        raise CorpusError("no training families remain")

    per_family_counts: dict[str, int] = {}
    for r in corpus.reports:
        if r.family in train_families:
            per_family_counts[r.family] = per_family_counts.get(r.family, 0) + 1
    for fam, count in sorted(per_family_counts.items()):
        if val_per_family > count:
            raise CorpusError(
                f"val_per_family={val_per_family} exceeds {count} reports of family {fam!r}"
            )

    train: list[LabeledReport] = []
    validation: list[LabeledReport] = []
    test: list[LabeledReport] = []
    taken: dict[str, int] = {fam: 0 for fam in train_families}
    for r in corpus.reports:
        if r.family in test_families:
            test.append(r)
        elif taken[r.family] < val_per_family:
            taken[r.family] += 1
            validation.append(r)
        else:
            train.append(r)
    return SplitResult(train=Corpus(train), validation=Corpus(validation), test=Corpus(test))


def generate_synthetic_corpus(spec: SynthSpec) -> Corpus:
    """Generate a labeled corpus of token-stream reports; pure function of spec.

    One generator seeded with spec.seed serves every report, in corpus order.
    Per report it makes three array calls, in this order: random() for the
    nation signature, random() for the family signature, then integers() for
    the noise tokens (skipped when the pool is empty). The output bytes
    depend on that order; each array call draws the same numbers as the same
    count of scalar calls would.
    """
    rng = np.random.default_rng(spec.seed)
    reports: list[LabeledReport] = []
    for n in range(spec.nations):
        nation_sig = [f"nsig_{n}_{k}" for k in range(spec.nation_sig_size)]
        for f in range(spec.families_per_nation):
            family_sig = [f"fsig_{n}_{f}_{k}" for k in range(spec.family_sig_size)]
            for r in range(spec.reports_per_family):
                keep_n = rng.random(spec.nation_sig_size) < spec.p_nation
                keep_f = rng.random(spec.family_sig_size) < spec.p_family
                tokens = list(compress(nation_sig, keep_n.tolist()))
                tokens += compress(family_sig, keep_f.tolist())
                if spec.noise_pool_size > 0:
                    missing = max(0, spec.tokens_per_report - len(tokens))
                    noise = rng.integers(spec.noise_pool_size, size=missing)
                    tokens += [f"noise_{i}" for i in noise.tolist()]
                reports.append(
                    LabeledReport(
                        id=f"report_{n}_{f}_{r}",
                        raw_text=" ".join(tokens),
                        nation=f"nation_{n}",
                        family=f"family_{n}_{f}",
                    )
                )
    return Corpus(reports)


def export_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write one text file per report plus a manifest; returns the manifest path."""
    for r in corpus.reports:
        if PurePath(r.id).name != r.id:
            raise CorpusError(f"report id {_show(r.id)} is not a plain file name")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.jsonl"
    lines = []
    for r in corpus.reports:
        filename = f"{r.id}.txt"
        (out_dir / filename).write_text(r.raw_text, encoding="utf-8")
        lines.append(
            json.dumps(
                {"id": r.id, "path": filename, "nation": r.nation, "family": r.family},
                sort_keys=True,
            )
        )
    manifest_path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return manifest_path
