"""Pipeline benchmark: the README's CLI pipeline in a closed loop with one client.

Usage (from the repository root):

    python3 pipebench/run.py --workload desk-pipeline --seed 1 --seconds 20 --trace 0

Set-up generates the workload's corpora from --seed and exports them as
report files; it runs before the warm-up pass and again before each measured
pass, SETUP_REPEATS times in all, and the median of the repeats is setup_s.
A pass runs vocab, vectorize (train), vectorize (held-out), train, transfer,
eval, importance and embed in-process through aptattrib.cli.main. One
untimed warm-up pass is followed by at least MIN_MEASURED measured passes,
and more until --seconds of measured pass time have been spent. Every
pass's artifacts are checked against independent computations (checks.py)
outside the timed region, the first in full in a child interpreter, the
rest by hash; a pass fails if a command exits non-zero or a check fails.
The last stdout line is one JSON object: correct, attempted, failed and the
metrics, which are the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1."""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: on a shared 2-core machine a
# thread per core makes single timings swing with the neighbours' load.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import struct  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_ROOT = HERE / "work"
# Set-up runs SETUP_REPEATS times: before the warm-up pass, then before each
# measured pass, so that the repeats sample the run rather than its first
# seconds, and after the last pass if the run had too few passes.
SETUP_REPEATS = 4
# Passes measured after the warm-up pass, at least; more run while --seconds
# of measured pass time has not yet been spent.
MIN_MEASURED = 2
IMPORTANCE_TOP = 100
KNN = 10
# The learning-rate schedule of the repository README's run.json.
LR = ["--lr-init", "0.01", "--lr-final", "0.0001"]


@dataclass(frozen=True)
class Workload:
    """One fixed pipeline configuration; README.md lists why each exists."""

    synth: dict
    # The first train_per_family reports of every family but the last of each
    # nation form the training corpus; the first held_per_family reports of
    # each nation's last family form the held-out corpus.
    train_per_family: int
    held_per_family: int
    vocab_max: int
    # Hidden widths; None keeps the CLI default 2000/1000x6/500 stack.
    hidden: tuple[int, ...] | None
    train_epochs: int
    transfer_epochs: int
    tsne: dict
    # Quality floors; None where training is too brief for them.
    accuracy_floor: float | None = None
    knn_floor: float | None = None


WORKLOADS = {
    "desk-pipeline": Workload(
        synth=dict(nations=2, families_per_nation=3, reports_per_family=300),
        train_per_family=300,
        held_per_family=300,
        vocab_max=640,
        hidden=(128, 64, 32),
        train_epochs=50,
        transfer_epochs=50,
        tsne=dict(perplexity=30.0, iterations=300, exaggeration_iters=100, momentum_switch_iter=100),
        accuracy_floor=0.90,
        knn_floor=0.90,
    ),
    "paper-train": Workload(
        synth=dict(
            nations=2,
            families_per_nation=3,
            reports_per_family=160,
            noise_pool_size=40000,
            tokens_per_report=360,
        ),
        train_per_family=32,
        held_per_family=160,
        vocab_max=20000,
        hidden=None,
        train_epochs=2,
        transfer_epochs=2,
        tsne=dict(perplexity=30.0, iterations=100, exaggeration_iters=50, momentum_switch_iter=50),
    ),
    "embed-large": Workload(
        synth=dict(nations=2, families_per_nation=3, reports_per_family=600),
        train_per_family=200,
        held_per_family=600,
        vocab_max=640,
        hidden=(128, 64, 32),
        train_epochs=80,
        transfer_epochs=80,
        tsne=dict(perplexity=30.0, iterations=60, exaggeration_iters=40, momentum_switch_iter=40),
        accuracy_floor=0.90,
        knn_floor=0.85,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "featurize_reports_per_s": "reports/s",
    "train_samples_per_s": "samples/s",
    "transfer_samples_per_s": "samples/s",
    "embed_s": "s",
}


def corpus_seed(seed: int, workload: str) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Corpora:
    train: list = field(default_factory=list)
    held: list = field(default_factory=list)


def split_reports(reports, w: Workload) -> Corpora:
    last = f"_{w.synth['families_per_nation'] - 1}"
    seen: dict[str, int] = {}
    out = Corpora()
    for r in reports:
        seen[r.family] = seen.get(r.family, 0) + 1
        if r.family.endswith(last):
            if seen[r.family] <= w.held_per_family:
                out.held.append(r)
        elif seen[r.family] <= w.train_per_family:
            out.train.append(r)
    return out


def set_up(w: Workload, seed: int, root: Path) -> tuple[float, Corpora]:
    """Generate the corpora and export them to root/corpora; returns (seconds, corpora)."""
    from aptattrib.corpus import Corpus, SynthSpec, export_corpus, generate_synthetic_corpus

    start = time.perf_counter()
    corpora = split_reports(generate_synthetic_corpus(SynthSpec(**w.synth, seed=seed)).reports, w)
    export_corpus(Corpus(corpora.train), root / "corpora" / "train")
    export_corpus(Corpus(corpora.held), root / "corpora" / "held")
    return time.perf_counter() - start, corpora


def commands(w: Workload, d: Path, pipeline_seed: int, vocab_size: int) -> list[tuple[str, list[str]]]:
    """The README pipeline, as (timer name, argv) in run order."""
    seed = ["--seed", str(pipeline_seed)]
    families = w.synth["nations"] * (w.synth["families_per_nation"] - 1)
    arch = [] if w.hidden is None else ["--arch", ",".join(map(str, (vocab_size, *w.hidden, families)))]
    train_manifest = str(d / "corpora" / "train" / "manifest.jsonl")
    held_manifest = str(d / "corpora" / "held" / "manifest.jsonl")
    return [
        ("vocab", ["vocab", "--manifest", train_manifest, "--out", str(d / "vocab.json"),
                   "--max-size", str(w.vocab_max), *seed]),
        ("vectorize_train", ["vectorize", "--manifest", train_manifest, "--vocab", str(d / "vocab.json"),
                             "--out", str(d / "train.bin"), *seed]),
        ("vectorize_held", ["vectorize", "--manifest", held_manifest, "--vocab", str(d / "vocab.json"),
                            "--out", str(d / "held.bin"), *seed]),
        ("train", ["train", "--matrix", str(d / "train.bin"), "--task", "family", *arch,
                   "--model-out", str(d / "family.model"), "--epochs", str(w.train_epochs), *LR, *seed]),
        ("transfer", ["transfer", "--base-model", str(d / "family.model"), "--matrix", str(d / "train.bin"),
                      "--model-out", str(d / "nation.model"), "--epochs", str(w.transfer_epochs), *LR, *seed]),
        ("eval", ["eval", "--model", str(d / "nation.model"), "--matrix", str(d / "held.bin"),
                  "--task", "nation", *seed]),
        ("importance", ["importance", "--model", str(d / "nation.model"), "--vocab", str(d / "vocab.json"),
                        "--top", str(IMPORTANCE_TOP), "--out", str(d / "importance.csv"), *seed]),
        ("embed", ["embed", "--config", str(d / "tsne.json"), "--model", str(d / "nation.model"),
                   "--matrix", str(d / "held.bin"), "--csv-out", str(d / "embedding.csv"),
                   "--svg-out", str(d / "embedding.svg"), *seed]),
    ]


ARTIFACTS = (
    "vocab.json", "train.bin", "held.bin", "family.model", "nation.model",
    "importance.csv", "embedding.csv", "embedding.svg",
)


@dataclass
class PassResult:
    seconds: dict[str, float]
    wall: float
    eval_stdout: str = ""
    error: str | None = None


def run_pass(cmds, tracer=None) -> PassResult:
    from aptattrib.cli import main as cli_main

    result = PassResult(seconds={}, wall=0.0)
    start = time.perf_counter()
    for name, argv in cmds:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            try:
                rc = cli_main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                rc = exc.code
        result.seconds[name] = time.perf_counter() - t0
        if rc != 0:
            result.error = f"{argv[0]} exited {rc}: {err.getvalue().strip()}"
            break
        if name == "eval":
            result.eval_stdout = out.getvalue()
    result.wall = time.perf_counter() - start
    return result


def artifact_digest(d: Path, eval_stdout: str) -> str:
    digest = hashlib.sha256(eval_stdout.encode())
    for name in ARTIFACTS:
        with open(d / name, "rb") as fh:
            digest.update(hashlib.file_digest(fh, "sha256").digest())
    return digest.hexdigest()


def check_pass(w: Workload, d: Path, corpora: Corpora, eval_stdout: str) -> dict:
    """Run every output check; returns the quality figures."""
    import checks

    raw = {name: (d / name).read_bytes() for name in ARTIFACTS}
    texts = [r.raw_text for r in corpora.train]
    tokens = checks.check_vocabulary(raw["vocab.json"], texts, w.vocab_max)
    train = checks.check_matrix(
        raw["train.bin"], texts, [r.nation for r in corpora.train], [r.family for r in corpora.train], tokens
    )
    held_nations = [r.nation for r in corpora.held]
    held = checks.check_matrix(
        raw["held.bin"], [r.raw_text for r in corpora.held], held_nations,
        [r.family for r in corpora.held], tokens,
    )
    checks.check_trunk(raw["family.model"], raw["nation.model"])
    accuracy = checks.check_eval(eval_stdout, raw["nation.model"], held)
    checks.check_importance(raw["importance.csv"].decode(), raw["nation.model"], tokens, IMPORTANCE_TOP)
    emb = checks.check_embedding(raw["embedding.csv"].decode(), held_nations)
    intra, inter, knn = checks.map_quality(emb, KNN)
    if w.accuracy_floor is not None:
        checks.expect(accuracy >= w.accuracy_floor, f"held-out nation accuracy {accuracy:.4f} below floor")
        checks.expect(intra < inter, f"map intra-nation distance {intra:.3f} not below inter {inter:.3f}")
        checks.expect(knn >= w.knn_floor, f"map {KNN}-NN nation agreement {knn:.4f} below floor")
    return {
        "accuracy": accuracy,
        "intra": intra,
        "inter": inter,
        "knn_agreement": knn,
        "train_density": float(train.rows.mean()),
    }


# The only argument of the child process that runs check_pass.
CHECK_CHILD = "--check-pass"
# A check that outlives this is killed; the run must end within 180 s.
CHECK_TIMEOUT_S = 120
# A malformed artifact fails its parser before any comparison.
CHECK_ERRORS = (ValueError, LookupError, struct.error)


def check_pass_apart(w: Workload, d: Path, corpora: Corpora, eval_stdout: str) -> dict:
    """check_pass in a child process, so that the parsed models and float64
    reference arrays do not count towards this process's peak_rss_mb.

    The child is a plain interpreter on this file, fed its inputs on stdin;
    subprocess.run waits for it and kills it if it outlives the timeout or
    this process is interrupted, so no process is left behind.
    """
    import checks

    def rows(reports) -> list[dict]:
        return [{"raw_text": r.raw_text, "nation": r.nation, "family": r.family} for r in reports]

    request = {
        "workload": dataclasses.asdict(w),
        "dir": str(d),
        "train": rows(corpora.train),
        "held": rows(corpora.held),
        "eval_stdout": eval_stdout,
    }
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), CHECK_CHILD],
        input=json.dumps(request), capture_output=True, text=True, timeout=CHECK_TIMEOUT_S,
    )
    if child.returncode != 0:
        raise RuntimeError(f"check process exited {child.returncode}: {child.stderr.strip()[-2000:]}")
    reply = json.loads(child.stdout.splitlines()[-1])
    if "error" in reply:
        raise checks.CheckFailed(reply["error"])
    return reply["quality"]


def check_child() -> int:
    """The child side of check_pass_apart: request on stdin, one JSON line on stdout."""
    import checks

    request = json.load(sys.stdin)
    corpora = Corpora(
        train=[SimpleNamespace(**r) for r in request["train"]],
        held=[SimpleNamespace(**r) for r in request["held"]],
    )
    try:
        reply = {"quality": check_pass(Workload(**request["workload"]), Path(request["dir"]), corpora,
                                       request["eval_stdout"])}
    except checks.CheckFailed as exc:
        reply = {"error": str(exc)}
    except CHECK_ERRORS as exc:
        reply = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(reply))
    return 0


def end_to_end(w: Workload, corpora: Corpora, passes: list[PassResult], setup_times: list[float]) -> dict:
    """Times and rates are medians over the measured passes."""
    n_train, n_held = len(corpora.train), len(corpora.held)

    def rate(work: int, *names: str) -> float:
        return statistics.median(work / sum(p.seconds[n] for n in names) for p in passes)

    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "featurize_reports_per_s": rate(2 * n_train + n_held, "vocab", "vectorize_train", "vectorize_held"),
        "train_samples_per_s": rate(w.train_epochs * n_train, "train"),
        "transfer_samples_per_s": rate(w.transfer_epochs * n_train, "transfer"),
        "embed_s": statistics.median(p.seconds["embed"] for p in passes),
    }


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, d: Path) -> dict:
    from spans import LAYER_UNITS, Tracer, layer_metrics

    import checks

    w = WORKLOADS[workload]
    cseed = corpus_seed(seed, workload)
    first_s, corpora = set_up(w, cseed, d)
    setup_times = [first_s]

    def set_up_again() -> None:
        seconds, _ = set_up(w, cseed, d / "again")
        setup_times.append(seconds)
        shutil.rmtree(d / "again")

    vocab_size = len(checks.expected_vocabulary([r.raw_text for r in corpora.train], w.vocab_max))
    (d / "tsne.json").write_text(json.dumps({"tsne": w.tsne}))
    cmds = commands(w, d, cseed, vocab_size)
    tracer = Tracer() if trace else None
    # The benchmark's own long-lived objects (corpora, reference data) are
    # moved out of the collector's reach, and each pass starts from a
    # collected heap, so collection pauses match a one-command process.
    gc.collect()
    gc.freeze()

    attempted = failed = 0
    correct = True
    reference = None
    measured: list[PassResult] = []
    layers: list[dict] = []
    quality = {}
    spent = 0.0
    with tracer.installed() if tracer else contextlib.nullcontext():
        while attempted < 1 + MIN_MEASURED or spent < seconds:
            warm_up = attempted == 0
            if not warm_up and len(setup_times) < SETUP_REPEATS:
                set_up_again()
            attempted += 1
            if tracer:
                tracer.spans.clear()
            gc.collect()
            result = run_pass(cmds, tracer)
            if not warm_up:
                spent += result.wall
            if result.error is None:
                # The first passing pass is checked in full; byte-identical
                # artifacts of a later pass would get the same verdicts.
                try:
                    digest = artifact_digest(d, result.eval_stdout)
                    if reference is None:
                        quality = check_pass_apart(w, d, corpora, result.eval_stdout)
                        reference = digest
                    checks.expect(digest == reference, "artifacts differ from the first checked pass")
                except (checks.CheckFailed, *CHECK_ERRORS) as exc:
                    result.error = f"check failed: {type(exc).__name__}: {exc}"
                    correct = False
            if result.error is not None:
                failed += 1
                print(f"pass {attempted} failed: {result.error}", file=sys.stderr)
                continue
            if warm_up:
                continue
            measured.append(result)
            if tracer:
                layers.append(
                    layer_metrics(
                        tracer.spans,
                        w.tsne["iterations"],
                        matrix_bytes=sum((d / f).stat().st_size for f in ("train.bin", "held.bin")),
                        model_bytes=sum((d / f).stat().st_size for f in ("family.model", "nation.model")),
                    )
                )
    while len(setup_times) < SETUP_REPEATS:
        set_up_again()

    if not measured:
        print(f"error: all {attempted} passes failed", file=sys.stderr)
        raise SystemExit(1)
    if tracer:
        metrics = {k: (statistics.median(m[k] for m in layers), u) for k, u in LAYER_UNITS.items()}
    else:
        values = end_to_end(w, corpora, measured, setup_times)
        metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": machine(),
        "rows": {"train": len(corpora.train), "held": len(corpora.held), "vocab": vocab_size},
        "measured_passes": len(measured),
        "setup_s": [round(t, 3) for t in setup_times],
        "pass_s": [round(p.wall, 3) for p in measured],
        "command_s": {n: statistics.median(p.seconds[n] for p in measured) for n, _ in cmds},
        "quality": quality,
    }
    print(json.dumps(summary), file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == [CHECK_CHILD]:
        return check_child()
    # A terminated run unwinds like an interrupted one: the finally blocks
    # remove its work directory and subprocess.run kills a running check.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aptattrib" / "__init__.py").is_file():
        print(f"error: no aptattrib sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import aptattrib

    if Path(aptattrib.__file__).resolve().parent != (SRC / "aptattrib").resolve():
        print(f"error: imported aptattrib from {aptattrib.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), d)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
