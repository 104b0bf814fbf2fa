"""The benchmark's workloads: the kexpfam command lines a user would type.

Every workload is a list of stages.  ``setup`` stages prepare the inputs
and count in ``setup_s``; ``timed`` stages are what the user waits for
(``wall_s``); ``post`` stages only produce numbers for the output checks.
Argument templates take ``{seed}`` (training data and sampler seed) and
``{test_seed}`` (``seed + 1``, test data).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Stage:
    """One ``kexpfam`` CLI call.

    ``check`` names the output check in ``worker.py``; ``expect`` holds the
    numbers it compares against.  ``outputs`` are the primary outputs that
    must repeat byte for byte across runs at one seed (provenance sidecars
    carry a timestamp and are left out).
    """

    name: str
    phase: str
    argv: tuple[str, ...]
    check: str
    outputs: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    def command(self, seed: int) -> list[str]:
        return [a.format(seed=seed, test_seed=seed + 1) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[Stage, ...]

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "Workload":
        stages = tuple(Stage(**{**s, "argv": tuple(s["argv"]),
                                "outputs": tuple(s["outputs"])})
                       for s in data["stages"])
        return cls(name=data["name"], why=data["why"], stages=stages)


def gen_grid(name: str, n: int, seed: str, out: str) -> Stage:
    stem = out.rsplit(".", 1)[0]
    return Stage(name, "setup",
                 ("gen-grid", "--dim", "3", "--n", str(n), "--seed", seed,
                  "--out", out),
                 "grid", (out, stem + ".config.json"), {"rows": n, "cols": 3})


def fit_lambda(phase: str) -> Stage:
    return Stage("fit", phase,
                 ("fit", "--data", "train.csv", "--dag", "markov",
                  "--lambda", "0.001", "--out-model", "model.kcef"),
                 "model", ("model.kcef",))


FIT_EVAL_2K = Workload(
    name="fit-eval-2k",
    why="Large-n path: one n=2000 assembly and Cholesky per node, IS "
        "normalizers over 20000 draws for 500 test rows, and the empirical "
        "score on 2000 rows.",
    stages=(
        gen_grid("gen_train", 2000, "{seed}", "train.csv"),
        gen_grid("gen_test", 500, "{test_seed}", "test.csv"),
        fit_lambda("timed"),
        Stage("eval", "timed",
              ("eval", "--model", "model.kcef", "--test", "test.csv",
               "--is-samples", "20000", "--out", "eval.json"),
              "eval", ("eval.json", "eval.rows.csv"), {"rows": 500}),
        Stage("score", "timed",
              ("score", "--model", "model.kcef", "--data", "train.csv",
               "--out", "score.json"),
              "score_train", ("score.json",)),
    ),
)

CV_500 = Workload(
    name="cv-500",
    why="Many small fits: the default CV grid makes 603 fit_factor calls at "
        "n~400 whose Gram fits in L2, so assembly dominates; no IS, no HMC.",
    stages=(
        gen_grid("gen_train", 500, "{seed}", "train.csv"),
        gen_grid("gen_test", 500, "{test_seed}", "test.csv"),
        Stage("fit_cv", "timed",
              ("fit", "--data", "train.csv", "--dag", "markov", "--cv",
               "--out-model", "model.kcef"),
              "cv", ("model.kcef", "model.cv.csv"), {"rows": 120}),
        Stage("score_test", "post",
              ("score", "--model", "model.kcef", "--data", "test.csv",
               "--out", "heldout.json"),
              "score_test", ("heldout.json",)),
    ),
)

HMC_SAMPLE_500 = Workload(
    name="hmc-sample-500",
    why="Latency-bound HMC: 330 leapfrog trajectories and 6930 gradient "
        "calls on (500 x 100) blocks; no assembly and no IS in the timed part.",
    stages=(
        gen_grid("gen_train", 500, "{seed}", "train.csv"),
        fit_lambda("setup"),
        Stage("sample", "timed",
              ("sample", "--model", "model.kcef", "--n", "100", "--seed", "{seed}",
               "--out", "samples.csv"),
              "sample", ("samples.csv",), {"rows": 100, "cols": 3}),
    ),
)

WORKLOADS = {w.name: w for w in (FIT_EVAL_2K, CV_500, HMC_SAMPLE_500)}
