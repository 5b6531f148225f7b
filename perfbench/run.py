#!/usr/bin/env python3
"""dadkit benchmark: the CLI pipeline, run in-process on seeded 64x64 inputs.

Run from the repository root:

    python3 perfbench/run.py --workload scene-eval --seed 1 --seconds 30 --trace 0

The program under test is imported from ./src, never from an installed copy.
A run sets up its fixed inputs from --seed, then repeats the workload's
timed CLI stages (`dadkit.cli.main([...])`, every stage with --threads 1) in
rounds.  Round r works on fresh inputs made from the round seed
1000 * seed + r, so nothing one round computes can be reused by the next.
Round 0 warms up; its quality and artifact digests are deterministic given
--seed.  After the measured rounds round 0 is run again and must rewrite
byte-identical artifacts.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; their times are
scaled to a reference machine speed (see calibrate.py).  --trace 1 runs
each round twice, untraced and then traced, checks that both rewrite the
same bytes, and prints the per-layer metrics.  The line before the result is
a JSON detail record: machine, per-stage throughput, output quality, digests.
The last line is the result: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import artifacts
from calibrate import NOMINAL_S, Reference
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5      # set-ups per untraced run; setup_s is their median
MIN_ROUNDS = 3         # measured rounds per run, even past --seconds
MAX_FAILED_ROUNDS = 3  # a run gives up after more rounds than this fail a stage
SRC_MODULES = ("__init__", "cli", "core", "distill", "errors", "evaluate", "geometry",
               "gradcheck", "model", "objective", "sampler", "synth")
CLI_STAGES = ("synth", "train", "detect", "eval", "distill")
# A cold start of the program, as every CLI invocation pays it.
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import dadkit.cli"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class StageFailed(Exception):
    """A CLI stage exited non-zero, raised, or wrote an artifact that fails its check."""


class Stage(NamedTuple):
    name: str             # CLI subcommand
    out: str              # directory it writes, relative to the work directory
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    pairs: int                                       # pairs per round
    kind: str                                        # "toy" or "scene" images
    setup: Callable[["Runner", int], None]           # (runner, seed): fixed inputs
    inputs: Callable[["Runner", int, int], None]     # (runner, round seed, pairs), untimed
    stages: Callable[[int, int], list[Stage]]        # (round seed, pairs): the timed stages
    model_weights: str                               # weights of the model the stages run


def round_seed(seed: int, r: int) -> int:
    return 1000 * seed + r


def _nothing(*args) -> None:
    pass


def _weights(*names):
    """Set-up that writes seeded init_params weights, one file per name."""
    def setup(runner: "Runner", seed: int) -> None:
        model = runner.dadkit.model
        for offset, name in enumerate(names):
            params = model.init_params(model.ArchConfig(seed=len(names) * seed + offset))
            model.save_weights(name, params)
    return setup


def _detector_inputs(runner: "Runner", rs: int, n: int) -> None:
    # A fresh detector each round: the keypoint and match counts, and so the
    # eval cost, depend on the weights, and one seed's weights are not typical.
    _weights("weights.dadw")(runner, rs)


def _toy_inputs(runner: "Runner", rs: int, n: int) -> None:
    shutil.rmtree("toy", ignore_errors=True)
    runner.call(Stage("synth", "toy", ("synth", "--mode", "toy", "--out", "toy",
                                       "--num-pairs", str(n), "--seed", str(rs),
                                       "--threads", "1")))


def _toy_train_stages(rs: int, n: int) -> list[Stage]:
    return [Stage("train", "train", ("train", "--data", "toy", "--out", "train",
                                     "--seed", str(rs), "--topk", "10", "--use-kde", "1",
                                     "--threads", "1"))]


def _scene_eval_stages(rs: int, n: int) -> list[Stage]:
    return [
        Stage("synth", "scenes", ("synth", "--mode", "scenes", "--out", "scenes",
                                  "--num-pairs", str(n), "--seed", str(rs), "--threads", "1")),
        Stage("detect", "dets", ("detect", "--weights", "weights.dadw", "--data", "scenes",
                                 "--out", "dets", "--topk", "512", "--mode", "inference",
                                 "--threads", "1")),
        Stage("eval", "report", ("eval", "--data", "scenes", "--detections", "dets",
                                 "--out", "report", "--seed", str(rs), "--threads", "1")),
    ]


def _scene_distill_stages(rs: int, n: int) -> list[Stage]:
    return [Stage("distill", "student", (
        "distill", "--light", "light.dadw", "--dark", "dark.dadw", "--mode", "scenes",
        "--r", "inf", "--num-pairs", str(n), "--out", "student", "--seed", str(rs),
        "--threads", "1"))]


WORKLOADS = {
    "toy-train": Workload(20, "toy", _nothing, _toy_inputs, _toy_train_stages,
                          "train/weights.dadw"),
    "scene-eval": Workload(10, "scene", _nothing, _detector_inputs,
                           _scene_eval_stages, "weights.dadw"),
    "scene-distill": Workload(12, "scene", _weights("light.dadw", "dark.dadw"), _nothing,
                              _scene_distill_stages, "student/student.dadw"),
}


class Runner:
    """Calls CLI stages, counts operations, and opens a span per stage when tracing."""

    def __init__(self, dadkit):
        self.dadkit = dadkit
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.log: list[tuple[str, float, bool]] = []   # (stage, seconds, traced)
        self.stdout: dict[str, str] = {}               # last captured stdout per stage

    def call(self, stage: Stage) -> float:
        self.attempted += 1
        buf = io.StringIO()
        span = self.tracer.span(f"cli.{stage.name}") if self.tracer else contextlib.nullcontext()
        rc, err = None, None
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(buf):
                rc = self.dadkit.cli.main(list(stage.argv))
        except Exception as e:  # a traceback out of the CLI is a failed operation
            err = e
        seconds = time.perf_counter() - start
        self.stdout[stage.name] = buf.getvalue()
        if rc != 0:
            self.failed += 1
            raise StageFailed(f"{stage.name} exited {rc}: {err!r}" if err else
                              f"{stage.name} exited {rc}")
        self.log.append((stage.name, seconds, self.tracer is not None))
        return seconds

    @contextlib.contextmanager
    def traced(self, tracer: Tracer | None, phase: str = "round"):
        if tracer is None:
            yield
            return
        tracer.phase = phase
        tracer.install()
        self.tracer = tracer
        try:
            yield
        finally:
            tracer.uninstall()
            self.tracer = None


_CHECKS = {
    "synth": lambda out, n, size: artifacts.check_synth(out, n),
    "train": lambda out, n, size: artifacts.check_train(out, n),
    "detect": artifacts.check_detect,
    "eval": lambda out, n, size: artifacts.check_eval(out, n),
    "distill": lambda out, n, size: artifacts.check_distill(out, n),
}


class Round(NamedTuple):
    seconds: dict[str, float]   # per stage
    scaled: dict[str, float]    # per stage, scaled to the reference machine speed
    digests: dict[str, str]     # per stage output directory

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def total_scaled(self) -> float:
        return sum(self.scaled.values())


class Bench:
    """One run of one workload: set-up, rounds, and the numbers they give."""

    def __init__(self, dadkit, workload: Workload, seed: int, n: int,
                 tracer: Tracer | None, ref: Reference):
        self.runner = Runner(dadkit)
        self.ref = ref
        self.workload = workload
        self.seed = seed
        self.n = n
        self.tracer = tracer
        self.size = (dadkit.synth.SceneConfig.toy() if workload.kind == "toy"
                     else dadkit.synth.SceneConfig.scenes()).size
        self.inputs_for: int | None = None   # round seed of the per-round inputs on disk

    def setup(self, cold_start: bool) -> tuple[float, float]:
        """Clear the work directory and set up from scratch.

        Returns the seconds taken, raw and scaled to the reference speed.
        """
        for p in Path(".").iterdir():
            shutil.rmtree(p) if p.is_dir() else p.unlink()
        before = self.ref.measure()
        start = time.perf_counter()
        if cold_start:
            subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC)], check=True)
        with self.runner.traced(self.tracer, "setup"):
            self.workload.setup(self.runner, self.seed)
            self.workload.inputs(self.runner, round_seed(self.seed, 0), self.n)
        seconds = time.perf_counter() - start
        self.inputs_for = round_seed(self.seed, 0)
        return seconds, seconds * 2 * NOMINAL_S / (before + self.ref.measure())

    def round(self, r: int, traced: bool = False) -> Round:
        rs = round_seed(self.seed, r)
        if self.inputs_for != rs:
            self.workload.inputs(self.runner, rs, self.n)
            self.inputs_for = rs
        stages = self.workload.stages(rs, self.n)
        for st in stages:
            shutil.rmtree(st.out, ignore_errors=True)
        seconds, scaled = {}, {}
        before = self.ref.measure()
        with self.runner.traced(self.tracer if traced else None):
            for st in stages:
                seconds[st.name] = self.runner.call(st)
                after = self.ref.measure()
                scaled[st.name] = seconds[st.name] * 2 * NOMINAL_S / (before + after)
                before = after
                self.check(st)
        return Round(seconds, scaled, {st.out: artifacts.digest_dir(st.out) for st in stages})

    def check(self, st: Stage) -> None:
        try:
            _CHECKS[st.name](st.out, self.n, self.size)
        except (artifacts.ArtifactError, OSError, ValueError) as e:
            self.runner.failed += 1
            raise StageFailed(f"{st.name}: {e}") from None

    def round0_record(self) -> tuple[dict, dict]:
        """Quality and counters from round 0's artifacts; deterministic given the seed."""
        outs = {st.name: st.out for st in self.workload.stages(round_seed(self.seed, 0), self.n)}
        quality, counters = {}, {"evaluate.ransac_no_model": 0.0,
                                 "objective.zero_reward_steps": 0.0,
                                 "objective.matches_per_step": 0.0}
        if "train" in outs:
            loss = Path(outs["train"]) / "loss.csv"
            quality["train_tail_reward"] = artifacts.tail_mean(loss, "mean_raw_reward", 100)
            out = self.runner.stdout["train"]
            printed = out.split("tail mean reward ")[-1].split(";")[0]
            if "tail mean reward " not in out or not printed.replace(".", "", 1).isdigit():
                raise BenchError(f"train printed no tail mean reward: {out!r}")
            if abs(float(printed) - quality["train_tail_reward"]) > 5e-4 + 1e-12:
                raise BenchError(f"train printed tail reward {printed}, loss.csv gives "
                                 f"{quality['train_tail_reward']}")
            zero, matches = artifacts.loss_counters(outs["train"])
            counters["objective.zero_reward_steps"] = float(zero)
            counters["objective.matches_per_step"] = matches
        if "eval" in outs:
            report = artifacts.read_report(outs["eval"])
            quality["eval_auc_epe"] = report["auc_epe"]
            quality["eval_mean_repeatability"] = report["mean_repeatability"]
            counters["evaluate.ransac_no_model"] = float(artifacts.count_no_model(outs["eval"]))
        if "distill" in outs:
            quality["distill_tail_loss"] = artifacts.tail_mean(
                Path(outs["distill"]) / "loss.csv", "loss", 20)
        return quality, counters


def blas_threads():
    """OpenBLAS thread count of the library numpy loaded, or None if unknown."""
    import ctypes
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(loadavg) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def import_dadkit():
    init = SRC / "dadkit" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no program to benchmark: {init} is missing")
    sys.path.insert(0, str(SRC))
    import dadkit
    import dadkit.cli
    import dadkit.model
    import dadkit.synth
    if Path(dadkit.__file__).resolve() != init.resolve():
        raise BenchError(f"imported dadkit from {dadkit.__file__}, not {init}")
    return dadkit


def src_lines() -> dict[str, float]:
    counts = {f"src_lines.{m}": 0.0 for m in SRC_MODULES}
    total = 0
    for p in sorted((SRC / "dadkit").glob("*.py")):
        n = len(p.read_text().splitlines())
        total += n
        counts[f"src_lines.{p.stem}"] = float(n)
    counts["src_lines.total"] = float(total)
    return counts


def forward_cost(params, size: int) -> tuple[float, float]:
    """(MFLOP, im2col MiB) of one forward on a size x size image, from the layer shapes."""
    flop = cols = 0
    for layer in params.layers:
        o, c, kh, kw = layer.kernel.shape
        flop += 2 * size * size * o * c * kh * kw
        cols += size * size * c * kh * kw * 8   # float64 (HW, C*k*k) columns
    return flop / 1e6, cols / 2**20


def _median_ms(vals) -> float:
    return statistics.median(vals) * 1e3 if vals else 0.0


def layer_metrics(spans, traced_rounds: int) -> dict:
    """Per-layer values from the spans.

    `.ms` is the median self time per call, `.incl_ms` the median duration
    per call, `.calls` the calls per traced round; 0 where nothing was called.
    """
    import numpy as np
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def ms(name, pred=lambda s: True, incl=False):
        return _median_ms([s.total if incl else s.self_time
                           for s in by_name.get(name, []) if pred(s)])

    def calls(name):
        return sum(1 for s in by_name.get(name, []) if s.phase == "round") / traced_rounds

    v = {f"cli.{st}.self_ms": ms(f"cli.{st}") for st in CLI_STAGES}
    for name in ("synth.gen_scene_pair", "synth.gen_toy_pair", "synth.write_pgm",
                 "synth.read_pgm", "synth.load_dataset", "synth.toy_matches",
                 "model.forward", "model.backward", "model.optimizer_step",
                 "model.load_weights", "sampler.write_keypoints_csv",
                 "sampler.read_keypoints_csv", "objective.total_loss_and_grad",
                 "geometry.match_mutual_nn", "geometry.transfer_points",
                 "core.softmax_2d", "core.gaussian_blur", "distill.distill_target",
                 "distill.distill_loss_and_grad", "evaluate.dlt_homography",
                 "evaluate.repeatability", "evaluate.evaluate_detections",
                 "evaluate.write_report"):
        v[f"{name}.ms"] = ms(name)
    for name in ("synth.gen_scene_pair", "model.forward", "model.backward",
                 "geometry.match_mutual_nn", "geometry.transfer_points",
                 "evaluate.ransac_homography", "evaluate.dlt_homography"):
        v[f"{name}.calls"] = calls(name)

    for mode in ("train", "inference"):
        def in_mode(s, mode=mode):
            return s.note[0] == mode
        v[f"sampler.sample_keypoints.{mode}.ms"] = ms("sampler.sample_keypoints", in_mode)
        v[f"sampler.sample_keypoints.{mode}.incl_ms"] = ms("sampler.sample_keypoints",
                                                            in_mode, incl=True)
    counts = [s.note[1] for s in by_name.get("sampler.sample_keypoints", [])
              if s.phase == "round"]
    v["sampler.keypoints_per_image"] = sum(counts) / len(counts) if counts else 0.0

    ransac = [s.self_time * 1e3 for s in by_name.get("evaluate.ransac_homography", [])]
    v["evaluate.ransac_homography.ms_p50"] = float(np.percentile(ransac, 50)) if ransac else 0.0
    v["evaluate.ransac_homography.ms_p90"] = float(np.percentile(ransac, 90)) if ransac else 0.0
    v["evaluate.ransac_homography.incl_ms_p50"] = ms("evaluate.ransac_homography", incl=True)
    minimal = [s for s in by_name.get("evaluate.dlt_homography", [])
               if s.parent == "evaluate.ransac_homography" and s.note == 4]
    v["evaluate.dlt_homography.valid_ratio"] = (
        sum(s.ok for s in minimal) / len(minimal) if minimal else 0.0)
    return v


def run(args, bench: dict, loadavg) -> tuple[dict, dict, int, int, bool]:
    dadkit = import_dadkit()
    ref = Reference()
    try:
        return measure(args, bench, loadavg, dadkit, ref)
    finally:
        ref.close()


def measure(args, bench: dict, loadavg, dadkit, ref: Reference
            ) -> tuple[dict, dict, int, int, bool]:
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    b = Bench(dadkit, workload, args.seed, args.pairs or workload.pairs, tracer, ref)
    detail: dict = {"workload": args.workload, "seed": args.seed, "pairs_per_round": b.n,
                    "machine": machine_record(loadavg)}
    correct = True

    setups = [b.setup(cold_start=not tracer) for _ in range(1 if tracer else SETUP_REPEATS)]
    reference = b.round(0)
    detail["quality"], counters = b.round0_record()
    detail["digests"] = reference.digests

    plain: list[Round] = []
    traced: list[Round] = []
    failed_rounds = 0
    began = time.perf_counter()
    for r in range(1, 1000):
        try:
            pair = (b.round(r), b.round(r, traced=True) if tracer else None)
        except StageFailed as e:   # counted in runner.failed; the round is not timed
            print(f"perfbench: round {r}: {e}", file=sys.stderr)
            failed_rounds += 1
            if failed_rounds > MAX_FAILED_ROUNDS:
                break
            continue
        plain.append(pair[0])
        if tracer:
            traced.append(pair[1])
            if pair[1].digests != pair[0].digests:
                correct = False
                print(f"perfbench: traced round {r} wrote other bytes than untraced",
                      file=sys.stderr)
        per_pass = statistics.median(x.total for x in plain) + (
            statistics.median(x.total for x in traced) if traced else 0.0)
        if len(plain) >= MIN_ROUNDS and time.perf_counter() - began + per_pass > args.seconds:
            break
    if not plain:
        raise BenchError("no measured round completed")
    try:
        if b.round(0).digests != reference.digests:
            correct = False
            print("perfbench: rerun of round 0 wrote other bytes", file=sys.stderr)
    except StageFailed as e:
        print(f"perfbench: rerun of round 0: {e}", file=sys.stderr)

    n = b.n
    detail["rounds"] = len(plain) + len(traced)
    detail["round_seconds"] = [round(x.total, 6) for x in plain]
    detail["reference_s"] = statistics.median(x.total / x.total_scaled * NOMINAL_S for x in plain)
    detail["stage_pairs_per_s"] = {
        f"{k}_pairs_per_s": n / statistics.median(x.scaled[k] for x in plain)
        for k in sorted(plain[0].seconds)}
    raw = {k: statistics.median(x.seconds[k] for x in plain) for k in plain[0].seconds}
    setup_synth = [s for name, s, tr in b.runner.log if name == "synth" and not tr]
    if "synth" not in raw and setup_synth:
        raw["synth"] = statistics.median(setup_synth)   # toy-train makes its data with synth
    detail["stage_pairs_per_s_raw"] = {f"{k}_pairs_per_s": n / s for k, s in sorted(raw.items())}

    if tracer:
        values = layer_metrics(tracer.spans, len(traced))
        values.update(counters)
        params = dadkit.model.load_weights(workload.model_weights)
        values["model.forward.mflop"], values["model.forward.im2col_mb"] = forward_cost(
            params, b.size)
        values["trace.overhead_share"] = (statistics.median(x.total for x in traced)
                                          / statistics.median(x.total for x in plain) - 1.0)
        values.update(src_lines())
        detail["traced_rounds"] = len(traced)
        detail["span_count"] = len(tracer.spans)
        section = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pairs_per_s": n / statistics.median(x.total_scaled for x in plain),
        }
        detail["raw"] = {"setup_s": statistics.median(raw_s for raw_s, _ in setups),
                         "pairs_per_s": n / statistics.median(x.total for x in plain)}
        section = "end_to_end"

    metrics = {}
    for m in bench[section]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not computed")
        val = float(values[m["name"]])
        if not math.isfinite(val):
            raise BenchError(f"metric {m['name']} is not finite: {val}")
        metrics[m["name"]] = {"value": val, "unit": m["unit"]}
    return detail, metrics, b.runner.attempted, b.runner.failed, correct


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pairs", type=int, default=None,
                    help="pairs per round instead of the workload's own (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or (args.pairs is not None and args.pairs < 1):
        ap.error("--seed must be >= 0 and --pairs >= 1")

    bench_file = ROOT / "BENCHMARK.json"
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if not bench_file.is_file():
            raise BenchError(f"{bench_file} is missing")
        bench = json.loads(bench_file.read_text())
        work.mkdir(parents=True)
        os.chdir(work)   # relative CLI paths keep meta.txt, and so the digests, path-free
        detail, metrics, attempted, failed, correct = run(args, bench, loadavg)
    except (BenchError, StageFailed, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
