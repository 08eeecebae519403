"""Batch command line tying the pipeline together.

Subcommands: synth, vocab, vectorize, train, transfer, eval, importance,
embed. Every option can come from a JSON config file (--config) with
command-line flags winning over config values, which win over the library
defaults. The config schema is derived, not restated: the synth, train and
tsne sections take exactly the fields of SynthSpec, TrainConfig (plus arch)
and TsneConfig, with value types taken from the field defaults, and are
type-checked once when the file is loaded. train and transfer share one set
of training flags. Exit codes: 0 success, 2 usage or validation error,
1 internal error. Diagnostics go to stderr; machine-readable results go to
files or stdout.

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

from .corpus import SynthSpec, export_corpus, generate_synthetic_corpus, load_corpus
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
    export_importance_csv,
    export_scatter_svg,
    importance_csv,
    olden_importance,
)
from .network import (
    DEFAULT_HIDDEN_SIZES,
    ArchSpec,
    TrainConfig,
    evaluate,
    init_model,
    load_model,
    save_model,
    train,
)
from .transfer import transfer_train

MAX_SEED = 2**64 - 1


def _field_types(cls) -> dict[str, type]:
    return {f.name: type(f.default) for f in dataclasses.fields(cls)}


# section -> key -> expected JSON value type (float keys also accept integers)
_SCHEMA = {
    "synth": _field_types(SynthSpec),
    "vocab": {"max_size": int},
    "train": {**_field_types(TrainConfig), "arch": list},
    "tsne": _field_types(TsneConfig),
    "paths": dict.fromkeys(
        "corpus_dir manifest vocab matrix model train_report transfer_model transfer_report "
        "eval_model embed_model importance_csv embedding_csv embedding_svg".split(),
        str,
    ),
}
_EXPECTED = {
    float: "a number",
    int: "an integer",
    bool: "true or false",
    str: "a string",
    list: "a list of integers",
}


def derive_seed(root_seed: int, stage: str) -> int:
    """Stage sub-seed: low 64 bits of sha256(root_seed_le8 || stage_name)."""
    digest = hashlib.sha256(root_seed.to_bytes(8, "little") + stage.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _check_value(where: str, kind: type, value) -> None:
    accepted = (int, float) if kind is float else (kind,)
    if type(value) not in accepted or (kind is list and any(type(v) is not int for v in value)):
        raise ValueError(f"config {where} must be {_EXPECTED[kind]}, got {json.dumps(value)}")


def load_config(path: str | None) -> dict:
    """Parse the JSON config file and check every key and value against _SCHEMA."""
    if path is None:
        return {}
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
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
            _check_value(f"{section}.{key}", schema[key], value)
    if "seed" in raw and not (type(raw["seed"]) is int and 0 <= raw["seed"] <= MAX_SEED):
        raise ValueError("config seed must be an unsigned 64-bit integer")
    return raw


def _root_seed(args, cfg: dict) -> int:
    if args.seed is not None:
        if not 0 <= args.seed <= MAX_SEED:
            raise ValueError("--seed must be an unsigned 64-bit integer")
        return args.seed
    return cfg.get("seed", 0)


def _resolve(flag_value, cfg: dict, section: str, key: str, default=None):
    """Flag wins; then the config section value; then the default."""
    if flag_value is not None:
        return flag_value
    return cfg.get(section, {}).get(key, default)


def _resolve_path(flag_value, cfg: dict, key: str, what: str):
    value = _resolve(flag_value, cfg, "paths", key)
    if value is None:
        raise ValueError(f"no {what} given: pass the flag or set paths.{key} in the config")
    return value


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
        raise ValueError(f"--arch must be comma-separated integers, got {text!r}") from None


def _stage_config(cls, args, cfg: dict, section: str, stage: str):
    """A validated `cls`: stage seed, then config section, then flags, each winning."""
    fields = set(_field_types(cls))
    values = {"seed": derive_seed(_root_seed(args, cfg), stage)}
    values.update((k, v) for k, v in cfg.get(section, {}).items() if k in fields)
    # --seed is the root seed, never a stage's own
    values.update(
        (k, v) for k, v in vars(args).items() if k in fields - {"seed"} and v is not None
    )
    config = cls(**values)
    config.validate()
    return config


def _write_report(report, path: str | None) -> None:
    if path:
        Path(path).write_text(json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote training report to {path}", file=sys.stderr)


def cmd_synth(args, cfg: dict) -> int:
    spec = _stage_config(SynthSpec, args, cfg, "synth", "synth")
    out_dir = _resolve_path(args.out_dir, cfg, "corpus_dir", "output directory")
    corpus = generate_synthetic_corpus(spec)
    manifest = export_corpus(corpus, out_dir)
    print(f"wrote {len(corpus)} reports under {out_dir} (manifest {manifest})", file=sys.stderr)
    return 0


def _manifest_path(args, cfg: dict) -> str:
    manifest = _resolve(args.manifest, cfg, "paths", "manifest")
    if manifest is None:
        corpus_dir = cfg.get("paths", {}).get("corpus_dir")
        if corpus_dir is not None:
            return str(Path(corpus_dir) / "manifest.jsonl")
        raise ValueError("no manifest given: pass --manifest or set paths.manifest")
    return manifest


def cmd_vocab(args, cfg: dict) -> int:
    manifest = _manifest_path(args, cfg)
    out = _resolve_path(args.out, cfg, "vocab", "vocabulary output path")
    max_size = _resolve(args.max_size, cfg, "vocab", "max_size", DEFAULT_VOCAB_SIZE)
    corpus = load_corpus(manifest)
    vocab = build_vocabulary(corpus, max_size=max_size)
    save_vocabulary(vocab, out)
    print(f"vocabulary of {len(vocab)} tokens from {len(corpus)} reports -> {out}", file=sys.stderr)
    return 0


def cmd_vectorize(args, cfg: dict) -> int:
    manifest = _manifest_path(args, cfg)
    vocab_path = _resolve_path(args.vocab, cfg, "vocab", "vocabulary path")
    out = _resolve_path(args.out, cfg, "matrix", "matrix output path")
    corpus = load_corpus(manifest)
    vocab = load_vocabulary(vocab_path)
    rows, nations, families = vectorize_corpus(corpus, vocab)
    save_matrix(out, rows, nations, families)
    print(f"feature matrix {rows.shape[0]}x{rows.shape[1]} -> {out}", file=sys.stderr)
    return 0


def cmd_train(args, cfg: dict) -> int:
    config = _stage_config(TrainConfig, args, cfg, "train", "train")
    matrix_path = _resolve_path(args.matrix, cfg, "matrix", "matrix path")
    model_out = _resolve_path(args.model_out, cfg, "model", "model output path")
    report_out = _resolve(args.report_out, cfg, "paths", "train_report")
    rows, classes, labels = _load_labeled_matrix(matrix_path, args.task)
    arch_sizes = args.arch if args.arch is not None else cfg.get("train", {}).get("arch")
    if arch_sizes is None:
        arch_sizes = [rows.shape[1], *DEFAULT_HIDDEN_SIZES, len(classes)]
    arch = ArchSpec(tuple(arch_sizes))
    if arch.input_size != rows.shape[1]:
        raise ValueError(
            f"arch input size {arch.input_size} does not match matrix width {rows.shape[1]}"
        )
    if arch.output_size != len(classes):
        raise ValueError(
            f"arch output size {arch.output_size} does not match "
            f"{len(classes)} distinct {args.task} label(s): {', '.join(classes)}"
        )
    model = init_model(arch, derive_seed(_root_seed(args, cfg), "train-init"))
    print(
        f"training {args.task} model {list(arch.layer_sizes)} on {rows.shape[0]} rows "
        f"for {config.epochs} epochs",
        file=sys.stderr,
    )
    report = train(model, rows, labels, config)
    save_model(model, model_out)
    print(f"wrote model to {model_out}", file=sys.stderr)
    _write_report(report, report_out)
    return 0


def cmd_transfer(args, cfg: dict) -> int:
    config = _stage_config(TrainConfig, args, cfg, "train", "transfer")
    base_path = _resolve_path(args.base_model, cfg, "model", "base model path")
    matrix_path = _resolve_path(args.matrix, cfg, "matrix", "matrix path")
    model_out = _resolve_path(args.model_out, cfg, "transfer_model", "model output path")
    report_out = _resolve(args.report_out, cfg, "paths", "transfer_report")
    base = load_model(base_path)
    rows, classes, labels = _load_labeled_matrix(matrix_path, "nation")
    if base.arch.input_size != rows.shape[1]:
        raise ValueError(
            f"base model input size {base.arch.input_size} does not match "
            f"matrix width {rows.shape[1]}"
        )
    print(
        f"transfer to {len(classes)} nation class(es) on {rows.shape[0]} rows "
        f"for {config.epochs} epochs",
        file=sys.stderr,
    )
    model, report = transfer_train(base, len(classes), rows, labels, config)
    save_model(model, model_out)
    print(f"wrote transferred model to {model_out}", file=sys.stderr)
    _write_report(report, report_out)
    return 0


def cmd_eval(args, cfg: dict) -> int:
    model_path = _resolve_path(args.model, cfg, "eval_model", "model path")
    matrix_path = _resolve_path(args.matrix, cfg, "matrix", "matrix path")
    model = load_model(model_path)
    rows, classes, labels = _load_labeled_matrix(matrix_path, args.task)
    if len(classes) != model.arch.output_size:
        raise ValueError(
            f"model has {model.arch.output_size} outputs but matrix carries "
            f"{len(classes)} distinct {args.task} label(s)"
        )
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


def cmd_importance(args, cfg: dict) -> int:
    model_path = _resolve_path(args.model, cfg, "model", "model path")
    vocab_path = _resolve_path(args.vocab, cfg, "vocab", "vocabulary path")
    out = _resolve(args.out, cfg, "paths", "importance_csv")
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    model = load_model(model_path)
    vocab = load_vocabulary(vocab_path)
    ranking = olden_importance(model, vocab)
    if out:
        export_importance_csv(ranking, out, args.top)
        print(f"wrote top {min(args.top, len(ranking))} features to {out}", file=sys.stderr)
    else:
        sys.stdout.write(importance_csv(ranking, args.top))
    return 0


def cmd_embed(args, cfg: dict) -> int:
    config = _stage_config(TsneConfig, args, cfg, "tsne", "embed")
    model_path = _resolve_path(args.model, cfg, "embed_model", "model path")
    matrix_path = _resolve_path(args.matrix, cfg, "matrix", "matrix path")
    csv_out = _resolve_path(args.csv_out, cfg, "embedding_csv", "embedding CSV path")
    svg_out = _resolve(args.svg_out, cfg, "paths", "embedding_svg")
    model = load_model(model_path)
    rows, nations, families = load_matrix(matrix_path)
    print(
        f"embedding {rows.shape[0]} samples (perplexity {config.perplexity}, "
        f"{config.iterations} iterations)",
        file=sys.stderr,
    )
    embedding = embed_corpus(model, rows, nations, families, args.label_kind, config)
    export_embedding_csv(embedding, csv_out)
    print(f"wrote coordinates to {csv_out} (final KL {embedding.final_kl:.4f})", file=sys.stderr)
    if svg_out:
        export_scatter_svg(embedding, svg_out)
        print(f"wrote scatter to {svg_out}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--seed", type=int, help="root seed (unsigned 64-bit)")
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--model-out", help="model output path")
    training.add_argument("--report-out", help="training report JSON output path")
    for flag, kind in (
        ("--lr-init", float),
        ("--lr-final", float),
        ("--epochs", int),
        ("--dropout-rate", float),
        ("--input-noise-rate", float),
        ("--batch-size", int),
    ):
        training.add_argument(flag, type=kind)
    training.add_argument("--no-shuffle", dest="shuffle", action="store_false", default=None)

    parser = argparse.ArgumentParser(
        prog="aptattrib",
        description="Attribution pipeline: synthesize reports, featurize, train, "
        "transfer, evaluate, rank features, and embed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic labeled corpus")
    p.add_argument("--out-dir", help="directory for report files and manifest.jsonl")
    p.add_argument("--nations", type=int)
    p.add_argument("--families-per-nation", type=int)
    p.add_argument("--reports-per-family", type=int)
    p.add_argument("--p-nation", type=float)
    p.add_argument("--p-family", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("vocab", parents=[common], help="build a vocabulary from a manifest")
    p.add_argument("--manifest", help="corpus manifest (JSONL)")
    p.add_argument("--out", help="vocabulary JSON output path")
    p.add_argument("--max-size", type=int, help=f"vocabulary cap (default {DEFAULT_VOCAB_SIZE})")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("vectorize", parents=[common], help="vectorize a corpus to a matrix file")
    p.add_argument("--manifest", help="corpus manifest (JSONL)")
    p.add_argument("--vocab", help="vocabulary JSON path")
    p.add_argument("--out", help="feature matrix output path")
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser(
        "train", parents=[common, training], help="train a classifier on a matrix file"
    )
    p.add_argument("--matrix", help="feature matrix path")
    p.add_argument("--task", choices=("nation", "family"), default="family")
    p.add_argument("--arch", type=_parse_arch_flag, help="comma-separated node-layer sizes")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "transfer",
        parents=[common, training],
        help="retrain the head of a model for nation attribution",
    )
    p.add_argument("--base-model", help="source model path")
    p.add_argument("--matrix", help="feature matrix path (nation labels)")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("eval", parents=[common], help="evaluate a model; JSON metrics to stdout")
    p.add_argument("--model", help="model path")
    p.add_argument("--matrix", help="feature matrix path")
    p.add_argument("--task", choices=("nation", "family"), default="nation")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("importance", parents=[common], help="rank features by contribution")
    p.add_argument("--model", help="model path")
    p.add_argument("--vocab", help="vocabulary JSON path")
    p.add_argument("--top", type=int, default=100, help="rows to emit (default 100)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("embed", parents=[common], help="2D embedding of penultimate activations")
    p.add_argument("--model", help="model path")
    p.add_argument("--matrix", help="feature matrix path")
    p.add_argument("--label-kind", choices=("nation", "family"), default="nation")
    p.add_argument("--csv-out", help="coordinate CSV output path")
    p.add_argument("--svg-out", help="scatter SVG output path")
    p.add_argument("--perplexity", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--step-size", type=float)
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
