"""Command-line interface: ``python -m repro ...``.

Lets a user regenerate the paper's comparisons on any of the four
dataset surrogates without touching pytest::

    python -m repro sweep --dataset sift --n 4000 --methods acorn,acorn1,pre,post
    python -m repro correlation --n 2000
    python -m repro info

``sweep`` prints the recall@K-vs-QPS tables of §7 and ``correlation``
the query-correlation C(D,Q) of the LAION-like workloads.  Neither is a
performance yardstick: every number a PR is judged by comes from
``benchmarks/e2e/run.py`` (declared in ``BENCHMARK.json``, compared
with ``benchmarks/e2e/compare.py``).
"""

from __future__ import annotations

import argparse

import numpy as np

import repro
from repro.baselines import PostFilterSearcher, PreFilterSearcher
from repro.core import AcornIndex, AcornOneIndex, AcornParams
from repro.datasets import (
    make_laion_like,
    make_paper_like,
    make_sift1m_like,
    make_tripclick_like,
    query_correlation,
)
from repro.eval import SweepRunner, render_sweeps
from repro.hnsw import HnswIndex
from repro.utils.timer import Timer

DATASETS = {
    "sift": lambda n, nq, seed: make_sift1m_like(n=n, dim=48, n_queries=nq,
                                                 seed=seed),
    "paper": lambda n, nq, seed: make_paper_like(n=n, dim=72, n_queries=nq,
                                                 seed=seed),
    "tripclick": lambda n, nq, seed: make_tripclick_like(
        n=n, dim=96, n_queries=nq, workload="areas", seed=seed
    ),
    "laion": lambda n, nq, seed: make_laion_like(
        n=n, dim=64, n_queries=nq, workload="no-cor", seed=seed
    ),
}


def _build_methods(names: list[str], dataset, m: int, gamma: int, seed: int):
    methods = {}
    for name in names:
        with Timer() as t:
            if name == "acorn":
                params = AcornParams(m=m, gamma=gamma, m_beta=2 * m,
                                     ef_construction=40)
                methods["ACORN-gamma"] = AcornIndex.build(
                    dataset.vectors, dataset.table, params=params, seed=seed
                )
            elif name == "acorn1":
                methods["ACORN-1"] = AcornOneIndex.build(
                    dataset.vectors, dataset.table, m=2 * m,
                    ef_construction=40, seed=seed,
                )
            elif name == "pre":
                methods["pre-filter"] = PreFilterSearcher(
                    dataset.vectors, dataset.table
                )
            else:  # "post": the parser admits only the four names
                hnsw = HnswIndex.build(dataset.vectors, m=m,
                                       ef_construction=48, seed=seed)
                methods["HNSW post-filter"] = PostFilterSearcher(
                    hnsw, dataset.table, max_oversearch=0.5
                )
        print(f"  built {name} in {t.elapsed:.1f}s")
    return methods


def _cmd_sweep(args: argparse.Namespace) -> None:
    maker = DATASETS[args.dataset]
    print(f"generating {args.dataset}-like dataset "
          f"(n={args.n}, queries={args.queries})...")
    dataset = maker(args.n, args.queries, args.seed)
    print(f"average predicate selectivity: "
          f"{dataset.selectivities().mean():.3f}")
    methods = _build_methods(
        args.methods.split(","), dataset, args.m, args.gamma, args.seed
    )
    runner = SweepRunner(dataset, k=args.k)
    sweeps = [
        runner.sweep(name, method, efforts=args.efforts)
        for name, method in methods.items()
    ]
    print()
    print(render_sweeps(sweeps, recall_target=args.recall_target))


def _cmd_correlation(args: argparse.Namespace) -> None:
    print(f"measuring C(D,Q) on LAION-like workloads (n={args.n})...")
    for workload in ("pos-cor", "no-cor", "neg-cor", "regex"):
        dataset = make_laion_like(n=args.n, dim=64, n_queries=args.queries,
                                  workload=workload, seed=args.seed)
        c = query_correlation(dataset, n_resamples=5, seed=0)
        print(f"  {workload:>8}: selectivity="
              f"{dataset.selectivities().mean():.3f}  C={c:+10.2f}")


def _cmd_info(_args: argparse.Namespace) -> None:
    print(f"repro {repro.__version__} — ACORN (SIGMOD 2024) reproduction")
    print(f"numpy {np.__version__}")
    print("datasets:", ", ".join(DATASETS))
    print("see DESIGN.md / EXPERIMENTS.md for the experiment index")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _effort_list(text: str) -> list[int]:
    """``"10,40,160"`` -> ``[10, 40, 160]``; empty lists and items that
    are not positive integers are usage errors."""
    return [_positive_int(item) for item in text.split(",")]


def _method_names(text: str) -> str:
    """Validate a comma list of sweep methods; returns it unchanged."""
    known = ("acorn", "acorn1", "pre", "post")
    for name in text.split(","):
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r}; choose from {', '.join(known)}"
            )
    return text


class _Parser(argparse.ArgumentParser):
    """argparse's own failure (usage line on stderr, exit status 2) with
    the message also carried as ``str(exc)``, so a caller of :func:`main`
    can tell *why* parsing failed, not only that it did."""

    def error(self, message: str):
        try:
            super().error(message)
        except SystemExit as exc:
            exc.args = (message,)  # exc.code, the exit status, stays 2
            raise


def build_parser() -> argparse.ArgumentParser:
    """The top-level ``repro`` argument parser."""
    parser = _Parser(
        prog="python -m repro",
        description="ACORN hybrid-search reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="recall-QPS sweep on a dataset")
    sweep.add_argument("--dataset", choices=sorted(DATASETS), default="sift")
    sweep.add_argument("--n", type=_positive_int, default=2000)
    sweep.add_argument("--queries", type=_positive_int, default=60)
    sweep.add_argument("--k", type=_positive_int, default=10)
    sweep.add_argument("--m", type=_positive_int, default=12)
    sweep.add_argument("--gamma", type=_positive_int, default=12)
    sweep.add_argument("--methods", type=_method_names,
                       default="acorn,acorn1,pre,post")
    sweep.add_argument("--efforts", type=_effort_list, default="10,40,160")
    sweep.add_argument("--recall-target", type=float, default=0.9)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(func=_cmd_sweep)

    corr = sub.add_parser("correlation",
                          help="measure C(D,Q) of the LAION workloads")
    corr.add_argument("--n", type=_positive_int, default=1500)
    corr.add_argument("--queries", type=_positive_int, default=40)
    corr.add_argument("--seed", type=int, default=3)
    corr.set_defaults(func=_cmd_correlation)

    info = sub.add_parser("info", help="version and environment summary")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
