"""The benchmark's workloads: input shapes, fairrerank configs and the part
of the program each one is meant to stress.

Every workload uses Zipf exponent 1.0, K = 10 and one thread for ALS. The
counts are scaled down from the batch shapes they stand for (noted per
workload) so that one iteration takes about one to two seconds on a
2-core machine and a 60 s run holds 20 or more iterations; each keeps
the dominant layer of the full-size shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # cli-run | lib-sweep | lib-als | cli-verify
    why: str
    shape: tuple[int, int, int] | None = None  # users, items, interactions per user
    config: dict[str, str] = field(default_factory=dict)
    mf_iterations: int = 0
    verify_instances: int = 0
    dominant: str = ""  # what the traced run's dominant_share measures
    dominant_floor: float = 0.0  # share of run_s the dominant part should reach

    def lists_per_run(self) -> int:
        """Per-user top-K lists one iteration produces (0: none)."""
        if self.kind not in ("cli-run", "lib-sweep"):
            return 0
        scorers = len(self.config["scorer.names"].split(","))
        points = len(self.config["rerank.lambda_grid"].split(","))
        return self.shape[0] * scorers * points


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run-export",
            kind="cli-run",
            why="default batch run through the CLI (2000x1500x40 scaled to 600x500x15): score export, "
            "list writing and manifest hashing dominate",
            shape=(600, 500, 15),
            config={
                "scorer.names": "popularity,mf",
                "mf.dim": "32",
                "mf.iters": "10",
                "rerank.k": "10",
                "rerank.lambda_grid": "0,2,10,40",
                "report.formats": "csv,json,md",
            },
            mf_iterations=10,
            dominant="writers and hashing",
            dominant_floor=0.40,
        ),
        Workload(
            name="sweep",
            kind="lib-sweep",
            why="library lambda_sweep over 9 per-item lambdas for mf and popularity (3000x2000x50 scaled "
            "to 600x400x30): re-ranking and metrics dominate, no writers",
            shape=(600, 400, 30),
            config={
                "scorer.names": "mf,popularity",
                "mf.dim": "32",
                "mf.iters": "5",
                "rerank.k": "10",
                "rerank.lambda_grid": "0,0.01,0.02,0.05,0.1,0.2,0.3,0.5,1.0",
                "rerank.per_user_lambda": "true",
            },
            mf_iterations=5,
            dominant="re-rank and metrics calls",
            dominant_floor=0.70,
        ),
        Workload(
            name="als",
            kind="lib-als",
            why="ingest, split and default 20-iteration ALS with masking (ML-1M-like 6000x3700x80 scaled "
            "to 1500x925x40): the per-row solve loop dominates; re-rank and metrics are absent",
            shape=(1500, 925, 40),
            config={"scorer.names": "mf"},
            mf_iterations=20,
            dominant="scorers.mf.train_s",
            dominant_floor=0.60,
        ),
        Workload(
            name="verify",
            kind="cli-verify",
            why="CLI verify battery on 300 tiny instances: per-call cost of rerank_exact and the only "
            "use of rerank_oracle",
            verify_instances=300,
            dominant="verify.oracle_equivalence_s",
            dominant_floor=0.80,
        ),
    )
}


def input_name(shape: tuple[int, int, int], seed: int) -> str:
    users, items, per_user = shape
    return f"zipf-{users}x{items}x{per_user}-a1.0-seed{seed}.tsv"


def config_text(workload: Workload, input_path: str, out_dir: str) -> str:
    pairs = {"input.path": input_path, "output.dir": out_dir, **workload.config}
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())
