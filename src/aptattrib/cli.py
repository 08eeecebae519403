"""Batch command line tying the pipeline together.

Subcommands: synth, vocab, vectorize, train, transfer, eval, importance,
embed. Every option can come from a JSON config file (--config) with
command-line flags winning over config values, which win over the library
defaults. That rule is applied once, by _resolve, before a command runs: it
fills in the paths and the root seed and hands the command its settings, so
no command reads the config. The config schema is derived, not restated: the
synth, train and tsne sections take exactly the fields of SynthSpec,
TrainConfig (plus arch) and TsneConfig, with value types taken from the field
defaults, and are type-checked once when the file is loaded by the same rule
(corpus._check_setting) each dataclass applies to its fields; the flags for
those fields are typed the same way. The root seed, from --seed or the
config, and each section's seed are checked by that rule as kind _SEED. train
and transfer share one set of training flags. One table of path options
(_PATH_OPTIONS) adds every command's path flags, names the paths section's
keys and drives their resolution. Each config dataclass checks its values
when built, so _stage_config only assembles them, and one rule, _check_fit,
says when a net fits a matrix for train, transfer, eval and embed.
Exit codes: 0 success, 2 usage or validation error or diverged training (a
non-finite loss), 1 internal error.
Diagnostics go to stderr; machine-readable results go to files or stdout.

All randomness flows from one root seed (--seed or config "seed"): each
stage derives its own sub-seed as the low 64 bits of
sha256(root_seed_le8 || stage_name), so stages are decoupled but the whole
pipeline is reproducible from a single number.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from .corpus import (
    SynthSpec,
    _SEED,
    _check_setting,
    _field_types,
    _parse_json,
    export_corpus,
    generate_synthetic_corpus,
    load_corpus,
)
from .featurize import (
    DEFAULT_VOCAB_SIZE,
    build_vocabulary,
    encode_labels,
    load_matrix,
    load_vocabulary,
    save_matrix,
    save_vocabulary,
    vectorize_corpus,
)
from .interpret import (
    TsneConfig,
    embed_corpus,
    export_embedding_csv,
    export_scatter_svg,
    importance_csv,
    olden_importance,
)
from .network import (
    ArchSpec,
    NumericalError,
    TrainConfig,
    default_arch,
    evaluate,
    init_model,
    load_model,
    save_model,
    train,
)
from .transfer import transfer_train

# command -> its path options as (flag, paths key, help, required). The table
# adds the flags, names the keys of the config's paths section, and drives
# the paths' resolution in _resolve.
_PATH_OPTIONS = {
    "synth": (("--out-dir", "corpus_dir", "directory for report files and manifest.jsonl", True),),
    "vocab": (
        ("--manifest", "manifest", "corpus manifest (JSONL)", True),
        ("--out", "vocab", "vocabulary JSON output path", True),
    ),
    "vectorize": (
        ("--manifest", "manifest", "corpus manifest (JSONL)", True),
        ("--vocab", "vocab", "vocabulary JSON path", True),
        ("--out", "matrix", "feature matrix output path", True),
    ),
    "train": (
        ("--matrix", "matrix", "feature matrix path", True),
        ("--model-out", "model", "model output path", True),
        ("--report-out", "train_report", "training report JSON output path", False),
    ),
    "transfer": (
        ("--base-model", "model", "source model path", True),
        ("--matrix", "matrix", "feature matrix path (nation labels)", True),
        ("--model-out", "transfer_model", "model output path", True),
        ("--report-out", "transfer_report", "training report JSON output path", False),
    ),
    "eval": (
        ("--model", "eval_model", "model path", True),
        ("--matrix", "matrix", "feature matrix path", True),
    ),
    "importance": (
        ("--model", "model", "model path", True),
        ("--vocab", "vocab", "vocabulary JSON path", True),
        ("--out", "importance_csv", "CSV output path (default stdout)", False),
    ),
    "embed": (
        ("--model", "embed_model", "model path", True),
        ("--matrix", "matrix", "feature matrix path", True),
        ("--csv-out", "embedding_csv", "coordinate CSV output path", True),
        ("--svg-out", "embedding_svg", "scatter SVG output path", False),
    ),
}

# section -> key -> expected JSON value kind (float keys also accept integers)
_SCHEMA = {
    "synth": _field_types(SynthSpec),
    "vocab": {"max_size": int},
    "train": {**_field_types(TrainConfig), "arch": list},
    "tsne": _field_types(TsneConfig),
    "paths": {key: str for options in _PATH_OPTIONS.values() for _, key, _, _ in options},
}
# command -> the config section its settings come from
_SECTIONS = {
    "synth": "synth",
    "vocab": "vocab",
    "train": "train",
    "transfer": "train",
    "embed": "tsne",
}


def derive_seed(root_seed: int, stage: str) -> int:
    """Stage sub-seed: low 64 bits of sha256(root_seed_le8 || stage_name)."""
    digest = hashlib.sha256(root_seed.to_bytes(8, "little") + stage.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def load_config(path: str | None) -> dict:
    """Parse the JSON config file and check every key and value against _SCHEMA."""
    if path is None:
        return {}
    raw = _parse_json(Path(path).read_bytes(), ValueError, f"config file {path}")
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(raw) - {"seed", *_SCHEMA})
    if unknown:
        raise ValueError(f"unknown config key(s) in config root: {', '.join(unknown)}")
    for section, schema in _SCHEMA.items():
        if section not in raw:
            continue
        if not isinstance(raw[section], dict):
            raise ValueError(f"config section {section!r} must be an object")
        unknown = sorted(set(raw[section]) - set(schema))
        if unknown:
            raise ValueError(
                f"unknown config key(s) in config section {section!r}: {', '.join(unknown)}"
            )
        for key, value in raw[section].items():
            _check_setting(f"config {section}.{key}", schema[key], value)
    _check_setting("config seed", _SEED, raw.get("seed", 0))
    return raw


def _resolve(args, cfg: dict) -> dict:
    """Decide each setting of args.command once: flag, then config, then default.

    Fills args in place: each path option from its flag, then config
    paths.<key>, else an error if it is required (paths.manifest defaults to
    manifest.jsonl under paths.corpus_dir); and args.seed with the checked
    root seed. Returns the command's settings: its config section (_SECTIONS)
    overlaid by every flag given except --seed, which is the root seed and
    never a stage's own.
    """
    paths = cfg.get("paths", {})
    if "manifest" not in paths and "corpus_dir" in paths:
        paths = {**paths, "manifest": str(Path(paths["corpus_dir"]) / "manifest.jsonl")}
    for flag, key, _, required in _PATH_OPTIONS[args.command]:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, paths.get(key))
        if required and getattr(args, dest) is None:
            raise ValueError(f"no {key} path given: pass {flag} or set paths.{key} in the config")
    if args.seed is None:
        args.seed = cfg.get("seed", 0)  # load_config checked it
    else:
        _check_setting("--seed", _SEED, args.seed)
    flags = {k: v for k, v in vars(args).items() if v is not None and k != "seed"}
    return {**cfg.get(_SECTIONS.get(args.command), {}), **flags}


def _load_labeled_matrix(path: str, task: str):
    rows, nations, families = load_matrix(path)
    labels = nations if task == "nation" else families
    missing = [i for i, lab in enumerate(labels) if lab is None]
    if missing:
        raise ValueError(
            f"matrix {path}: {len(missing)} row(s) have no {task} label (first: row {missing[0]})"
        )
    classes, encoded = encode_labels(labels)
    return rows, classes, encoded


def _parse_arch_flag(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}"
        ) from None


def _stage_config(cls, args, settings: dict):
    """A validated `cls`: the stage seed derived from args.command, then the settings."""
    fields = _field_types(cls)
    values = {k: v for k, v in settings.items() if k in fields}
    return cls(**{"seed": derive_seed(args.seed, args.command), **values})


def _check_fit(name: str, arch: ArchSpec, rows, classes=None, task: str = "") -> None:
    """Reject a net that does not fit a matrix: its input size must be the matrix
    width and, when classes are given, its output size their count."""
    if arch.input_size != rows.shape[1]:
        raise ValueError(
            f"{name} input size {arch.input_size} does not match matrix width {rows.shape[1]}"
        )
    if classes is not None and arch.output_size != len(classes):
        raise ValueError(
            f"{name} output size {arch.output_size} does not match "
            f"{len(classes)} distinct {task} label(s): {', '.join(classes)}"
        )


def _write_report(records, path: str | None) -> None:
    if path:
        Path(path).write_text(
            json.dumps([dataclasses.asdict(r) for r in records], indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote training report to {path}", file=sys.stderr)


def cmd_synth(args, settings: dict) -> int:
    spec = _stage_config(SynthSpec, args, settings)
    corpus = generate_synthetic_corpus(spec)
    manifest = export_corpus(corpus, args.out_dir)
    print(
        f"wrote {len(corpus)} reports under {args.out_dir} (manifest {manifest})", file=sys.stderr
    )
    return 0


def cmd_vocab(args, settings: dict) -> int:
    corpus = load_corpus(args.manifest)
    vocab = build_vocabulary(corpus, max_size=settings.get("max_size", DEFAULT_VOCAB_SIZE))
    save_vocabulary(vocab, args.out)
    print(
        f"vocabulary of {len(vocab)} tokens from {len(corpus)} reports -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_vectorize(args, settings: dict) -> int:
    corpus = load_corpus(args.manifest)
    vocab = load_vocabulary(args.vocab)
    rows, nations, families = vectorize_corpus(corpus, vocab)
    save_matrix(args.out, rows, nations, families)
    print(f"feature matrix {rows.shape[0]}x{rows.shape[1]} -> {args.out}", file=sys.stderr)
    return 0


def cmd_train(args, settings: dict) -> int:
    config = _stage_config(TrainConfig, args, settings)
    rows, classes, labels = _load_labeled_matrix(args.matrix, args.task)
    sizes = settings.get("arch")
    arch = default_arch(rows.shape[1], len(classes)) if sizes is None else ArchSpec(tuple(sizes))
    _check_fit("arch", arch, rows, classes, args.task)
    model = init_model(arch, derive_seed(args.seed, "train-init"))
    print(
        f"training {args.task} model {list(arch.layer_sizes)} on {rows.shape[0]} rows "
        f"for {config.epochs} epochs",
        file=sys.stderr,
    )
    records = train(model, rows, labels, config)
    save_model(model, args.model_out)
    print(f"wrote model to {args.model_out}", file=sys.stderr)
    _write_report(records, args.report_out)
    return 0


def cmd_transfer(args, settings: dict) -> int:
    config = _stage_config(TrainConfig, args, settings)
    base = load_model(args.base_model)
    rows, classes, labels = _load_labeled_matrix(args.matrix, "nation")
    _check_fit("base model", base.arch, rows)  # the new head is sized to the classes
    print(
        f"transfer to {len(classes)} nation class(es) on {rows.shape[0]} rows "
        f"for {config.epochs} epochs",
        file=sys.stderr,
    )
    model, records = transfer_train(base, len(classes), rows, labels, config)
    save_model(model, args.model_out)
    print(f"wrote transferred model to {args.model_out}", file=sys.stderr)
    _write_report(records, args.report_out)
    return 0


def cmd_eval(args, settings: dict) -> int:
    model = load_model(args.model)
    rows, classes, labels = _load_labeled_matrix(args.matrix, args.task)
    _check_fit("model", model.arch, rows, classes, args.task)
    result = evaluate(model, rows, labels)
    payload = {
        "task": args.task,
        "samples": int(rows.shape[0]),
        "labels": list(classes),
        "accuracy": result.accuracy,
        "confusion": result.confusion.tolist(),
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_importance(args, settings: dict) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    model = load_model(args.model)
    vocab = load_vocabulary(args.vocab)
    ranking = olden_importance(model, vocab)
    text = importance_csv(ranking, args.top)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(
            f"wrote top {min(args.top, len(ranking.tokens))} features to {args.out}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_embed(args, settings: dict) -> int:
    config = _stage_config(TsneConfig, args, settings)
    model = load_model(args.model)
    rows, nations, families = load_matrix(args.matrix)
    _check_fit("model", model.arch, rows)
    print(
        f"embedding {rows.shape[0]} samples (perplexity {config.perplexity}, "
        f"{config.iterations} iterations)",
        file=sys.stderr,
    )
    labels = nations if args.label_kind == "nation" else families
    embedding = embed_corpus(model, rows, labels, config)
    export_embedding_csv(embedding, args.csv_out)
    print(
        f"wrote coordinates to {args.csv_out} (final KL {embedding.kl_trace[-1][1]:.4f})",
        file=sys.stderr,
    )
    if args.svg_out:
        export_scatter_svg(embedding, args.svg_out)
        print(f"wrote scatter to {args.svg_out}", file=sys.stderr)
    return 0


def _add_field_flags(parser: argparse.ArgumentParser, cls, names: str) -> None:
    """One flag per named field of cls, typed like its default, as _SCHEMA is."""
    kinds = _field_types(cls)
    for name in names.split():
        parser.add_argument("--" + name.replace("_", "-"), type=kinds[name])


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--seed", type=int, help="root seed (unsigned 64-bit)")
    training = argparse.ArgumentParser(add_help=False)
    _add_field_flags(
        training, TrainConfig, "lr_init lr_final epochs dropout_rate input_noise_rate batch_size"
    )

    parser = argparse.ArgumentParser(
        prog="aptattrib",
        description="Attribution pipeline: synthesize reports, featurize, train, "
        "transfer, evaluate, rank features, and embed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        for flag, _, text, _ in _PATH_OPTIONS[name]:
            p.add_argument(flag, help=text)
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "generate a synthetic labeled corpus")
    _add_field_flags(
        p, SynthSpec, "nations families_per_nation reports_per_family p_nation p_family"
    )

    p = command("vocab", cmd_vocab, "build a vocabulary from a manifest")
    p.add_argument("--max-size", type=int, help=f"vocabulary cap (default {DEFAULT_VOCAB_SIZE})")

    command("vectorize", cmd_vectorize, "vectorize a corpus to a matrix file")

    p = command("train", cmd_train, "train a classifier on a matrix file", training)
    p.add_argument("--task", choices=("nation", "family"), default="family")
    p.add_argument("--arch", type=_parse_arch_flag, help="comma-separated node-layer sizes")

    command(
        "transfer", cmd_transfer, "retrain the head of a model for nation attribution", training
    )

    p = command("eval", cmd_eval, "evaluate a model; JSON metrics to stdout")
    p.add_argument("--task", choices=("nation", "family"), default="nation")

    p = command("importance", cmd_importance, "rank features by contribution")
    p.add_argument("--top", type=int, default=100, help="rows to emit (default 100)")

    p = command("embed", cmd_embed, "2D embedding of penultimate activations")
    p.add_argument("--label-kind", choices=("nation", "family"), default="nation")
    _add_field_flags(p, TsneConfig, "perplexity iterations")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _resolve(args, load_config(args.config)))
    except (ValueError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
