"""Command-line interface: corrupt / train / denoise / eval / inspect.

Every command is deterministic given (config, seed): file lists are sorted,
all randomness flows through seeds derived from the configured seed, and
floats are written with repr-exact formatting.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric failure.

No command overwrites what it reads or writes: a command exits 1 before
`--out` is made when a path it writes is an existing directory (`--out`
aside), a file it reads or another of its writes (_check_paths).
"""
import argparse
import logging
import sys
from dataclasses import replace
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import lanes
from .cg_unroll import CgConfig, unrolled_cg
from .compiled import compile_filter, network_response
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
from .imaging import (
    IMAGE_SUFFIXES,
    GrayImage,
    add_awgn,
    load_image,
    partition,
    psnr,
    reassemble,
    save_image,
)
# `forward` is not called here; the benchmark's tracer tests check that this
# module binds it, so that patching `train.forward` reaches every namespace
from .train import (  # noqa: F401
    ParamVector,
    PipelineConfig,
    build_system,
    forward,
    load_checkpoint,
    save_checkpoint,
    train_loop,
    write_text_durably,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors, not argparse's 2
        raise CliUsageError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


def _pipeline_config(cfg: RunConfig) -> PipelineConfig:
    return PipelineConfig(
        window_radius=cfg.window_radius,
        degree_K=cfg.K,
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


def _check_paths(reads, out: Path, writes) -> None:
    """Exit 1 if a command would overwrite what it reads or writes: reads
    and writes are (what, path) pairs (a read with no path is skipped), a
    file written may not be an existing directory, and no write, `out`
    first, may resolve to a file read or to an earlier write."""
    for what, path in writes:
        if path.is_dir():
            raise CliUsageError(f"{path} (the {what}) is a directory")
    taken = {Path(path).resolve(): f"{path} (the {what})" for what, path in reads if path}
    for what, path in [("output directory", out), *writes]:
        resolved, named = path.resolve(), f"{path} (the {what})"
        if resolved in taken:
            raise CliUsageError(f"{named} would overwrite {taken[resolved]}")
        taken[resolved] = named


def _map_patches(images: list[GrayImage], patch_side: int, makers) -> list[list[GrayImage]]:
    """Denoise every patch of every image's grid; per image, one image per
    output, clipped to [0, 1].

    Each maker maps a patch to a list of output patches, building the
    patch's system and solving it; a patch's outputs are its makers' outputs
    in order. Items (image, patch, maker), each one job that calls the maker
    on the patch, run on the lanes in one batch (lanes.in_lanes), images in
    order and each image's patches in raster order, so a lane that finishes
    a short job takes the next item of any image. A build's temporary arrays
    are small beside the system it leaves (see graph_filter.normalize), so
    concurrent jobs keep the peak memory at about one system per lane.

    Every job computes exactly what it would serially, so the output is
    bitwise independent of the lane count. When items fail, the error raised
    is the one the serial loop would raise: that of the first failing item.
    """
    grids = [partition(image, patch_side) for image in images]
    items = [partial(maker, patch) for grid in grids for patch in grid.patches for maker in makers]
    results = iter(lanes.in_lanes(items))
    mapped = []
    for grid in grids:
        jobs = islice(results, len(grid.patches) * len(makers))
        outputs = [out for job_outputs in jobs for out in job_outputs]
        columns = np.clip(np.array(outputs), 0.0, 1.0).reshape(len(grid.patches), -1, patch_side**2)
        mapped.append([reassemble(replace(grid, patches=p)) for p in columns.swapaxes(0, 1)])
    return mapped


def _learned_maker(params: ParamVector, hyper: PipelineConfig, patch_side: int):
    """The learned network's maker: the patch's system is built, then its
    Psi filters the patch by the network's compiled filter. The network is
    compiled here, so a checkpoint that does not compile fails before any
    patch is read."""
    compiled = compile_filter(params)

    def learned(patch):
        return [compiled.apply(build_system(params, patch, patch_side, hyper).psi, patch)]

    return learned


def _crop(image: GrayImage, patch_side: int) -> GrayImage:
    """The image cropped to whole patches; partition rejects one smaller
    than a patch."""
    return reassemble(partition(image, patch_side))


def cmd_corrupt(cfg: RunConfig, input_dir: str, config: str | None) -> int:
    paths = _list_images(input_dir)
    out = Path(cfg.out)
    targets = [out / (path.stem + ".pgm") for path in paths]
    manifest = out / "manifest.csv"
    copies = [(f"noisy copy of {path.name}", target) for path, target in zip(paths, targets)]
    reads = [("config", config), *(("input", path) for path in paths)]
    _check_paths(reads, out, [*copies, ("manifest", manifest)])
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for index, (path, target) in enumerate(zip(paths, targets)):
        file_seed = cfg.seed + index
        noisy = add_awgn(load_image(path), cfg.sigma, file_seed)
        save_image(noisy, target)
        rows.append(f"{target.name},{file_seed},{_fmt(cfg.sigma)}")
    write_text_durably(manifest, "file,seed,sigma\n" + "\n".join(rows) + "\n")
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


def cmd_train(cfg: RunConfig, config: str | None) -> int:
    train_paths = _list_images(cfg.train_dir)
    # without a test_dir, train_loop validates on the training pairs
    val_paths = _list_images(cfg.test_dir) if cfg.test_dir else []
    hyper = _pipeline_config(cfg)
    train_pairs = _load_pairs(train_paths, cfg.sigma_train, cfg.patch_side, cfg.seed)
    val_pairs = _load_pairs(val_paths, cfg.sigma_train, cfg.patch_side, cfg.seed + 10_000)
    out = Path(cfg.out)
    checkpoint_path = Path(cfg.checkpoint) if cfg.checkpoint else out / "checkpoint.json"
    history_path = out / "history.csv"
    reads = [("config", config), *(("training image", path) for path in train_paths)]
    reads += [("test image", path) for path in val_paths]
    _check_paths(reads, out, [("checkpoint", checkpoint_path), ("history", history_path)])
    # both are made before training, so a bad path fails before the epochs run
    out.mkdir(parents=True, exist_ok=True)
    checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
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
    save_checkpoint(checkpoint_path, state.params, hyper)
    lines = ["epoch,train_loss,val_psnr"]
    lines += [f"{h.epoch},{_fmt(h.train_loss)},{_fmt(h.val_psnr)}" for h in history]
    write_text_durably(history_path, "\n".join(lines) + "\n")
    print(f"wrote {checkpoint_path} and {history_path}")
    return 0


def cmd_denoise(cfg: RunConfig, image_path: str, truth_path: str | None, config: str | None) -> int:
    params, hyper = load_checkpoint(cfg.checkpoint)
    learned = _learned_maker(params, hyper, cfg.patch_side)
    noisy = _crop(load_image(image_path), cfg.patch_side)
    # the truth is read and checked before anything is written
    truth = _crop(load_image(truth_path), cfg.patch_side) if truth_path else None
    if truth_path and (truth.width, truth.height) != (noisy.width, noisy.height):
        raise InvalidInputError(
            f"the truth crops to {truth.width}x{truth.height}, "
            f"the image to {noisy.width}x{noisy.height}"
        )
    out = Path(cfg.out)
    target = out / (Path(image_path).stem + "_denoised.pgm")
    reads = [("config", config), ("checkpoint", cfg.checkpoint)]
    _check_paths([*reads, ("image", image_path), ("truth", truth_path)], out, [("output", target)])
    out.mkdir(parents=True, exist_ok=True)
    [[denoised]] = _map_patches([noisy], cfg.patch_side, [learned])
    save_image(denoised, target)
    print(f"wrote {target}")
    if truth_path:
        # score the saved artifact, so the report is exactly reproducible
        print(f"psnr = {_fmt(psnr(truth, load_image(target)))}")
    return 0


def cmd_eval(cfg: RunConfig, config: str | None) -> int:
    trained_params, hyper = load_checkpoint(cfg.checkpoint)
    side = cfg.patch_side
    trained = _learned_maker(trained_params, hyper, side)
    paths = _list_images(cfg.test_dir)
    cleans = [_crop(load_image(path), side) for path in paths]
    out = Path(cfg.out)
    table = out / "eval.csv"
    reads = [("config", config), ("checkpoint", cfg.checkpoint)]
    _check_paths([*reads, *(("test image", path) for path in paths)], out, [("table", table)])
    out.mkdir(parents=True, exist_ok=True)
    init_params = ParamVector.initial(hyper)
    # the initialization baseline solves the initial system by classic CG
    analytic = CgConfig(depth_T=hyper.depth_T)

    def initial(patch):
        # the bilateral smoother is the initial system's Psi: one build serves both
        system = build_system(init_params, patch, side, hyper)
        return [system.psi.apply(patch), unrolled_cg(system.apply_system, patch, analytic)[0]]

    # scores[s] holds the bilateral, init and trained PSNRs at sigma s, in
    # image order; one batch maps an image at every sigma, so the lanes stay
    # busy while memory holds one image's outputs
    scores = [([], [], []) for _ in cfg.sigma_test]
    for image_index, clean in enumerate(cleans):
        noisy = [
            add_awgn(clean, sigma, cfg.seed + 1000 * sigma_index + image_index)
            for sigma_index, sigma in enumerate(cfg.sigma_test)
        ]
        for columns, denoised in zip(scores, _map_patches(noisy, side, [initial, trained])):
            for column, image in zip(columns, denoised):
                column.append(psnr(clean, image))
    lines = ["sigma,psnr_bilateral,psnr_init,psnr_trained"]
    for sigma, columns in zip(cfg.sigma_test, scores):
        lines.append(",".join(_fmt(value) for value in [sigma, *map(np.mean, columns)]))
    write_text_durably(table, "\n".join(lines) + "\n")
    print(f"wrote {table}")
    return 0


def cmd_inspect(cfg: RunConfig, config: str | None) -> int:
    params, hyper = load_checkpoint(cfg.checkpoint)
    # the report reads the first test image only
    images = _list_images(cfg.test_dir)[:1] if cfg.test_dir else []
    out = Path(cfg.out)
    if cfg.out:
        reads = [("config", config), ("checkpoint", cfg.checkpoint)]
        reads += [("test image", path) for path in images]
        _check_paths(reads, out, [("report", out / "inspect.txt")])
    lines = [
        f"degree_K = {hyper.degree_K}",
        f"depth_T = {hyper.depth_T}",
        f"window_radius = {hyper.window_radius}",
    ]
    factor = params.metric()
    for i in range(FEATURE_DIM):
        for j in range(i + 1):
            lines.append(f"metric_factor_{i}{j} = {_fmt(factor[i, j])}")
    for i, value in enumerate(np.linalg.eigvalsh(factor.T @ factor)):
        lines.append(f"metric_eigenvalue_{i} = {_fmt(value)}")
    for k, value in enumerate(params.tse_coeffs):
        lines.append(f"tse_coeff_{k} = {_fmt(value)}")
    for k, value in enumerate(params.cg_alpha):
        lines.append(f"cg_alpha_{k} = {_fmt(value)}")
    for k, value in enumerate(params.cg_beta):
        lines.append(f"cg_beta_{k} = {_fmt(value)}")
    try:
        compiled = compile_filter(params)
        lines.append(f"compiled_degree = {compiled.degree}")
        lines.append(f"compiled_fit_error = {_fmt(compiled.fit_error)}")
    except NumericDivergenceError:
        lines += ["compiled_degree = none", "compiled_fit_error = none"]
    # the most the network amplifies any eigencomponent of any patch
    try:
        spectrum = np.linspace(0.0, 1.0, 1001)
        max_gain = np.max(np.abs(network_response(params, spectrum)))
    except NumericDivergenceError:
        max_gain = float("nan")
    lines.append(f"compiled_max_abs_q = {_fmt(max_gain)}")
    for image in map(load_image, images):
        grid = partition(image, cfg.patch_side)
        for index, patch in enumerate(grid.patches[:4]):
            psi = build_system(params, patch, cfg.patch_side, hyper).psi
            lam_min, lam_max = estimate_spectrum(psi, iterations=200)
            lines.append(f"patch_{index}_lambda_min = {_fmt(lam_min)}")
            lines.append(f"patch_{index}_lambda_max = {_fmt(lam_max)}")
            lines.append(f"patch_{index}_pd = {'yes' if lam_min > 0 else 'no'}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if cfg.out:
        out.mkdir(parents=True, exist_ok=True)
        write_text_durably(out / "inspect.txt", report)
    return 0


# The RunConfig fields each command reads, and so its only flags: a flag
# the command would ignore is an unrecognized argument. A config file may
# hold every field, and each command reads its own.
READS = {
    "corrupt": ("sigma", "seed", "out"),
    "train": (
        "patch_side", "window_radius", "K", "T", "sigma_train", "epochs", "batch_size",
        "learning_rate", "seed", "train_dir", "test_dir", "checkpoint", "out",
    ),
    "denoise": ("patch_side", "checkpoint", "out"),
    "eval": ("patch_side", "sigma_test", "seed", "test_dir", "checkpoint", "out"),
    "inspect": ("patch_side", "test_dir", "checkpoint", "out"),
}
# The fields of READS that each command cannot run without.
REQUIRES = {"corrupt": ("out",), "train": ("train_dir", "out"), "denoise": ("checkpoint", "out"),
            "eval": ("checkpoint", "test_dir", "out"), "inspect": ("checkpoint",)}


def make_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: `--learn` must not be read as `--learning_rate`
    parser = _Parser(prog="graphdenoise", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for field in READS[name]:
            p.add_argument(f"--{field}", default=None, help=f"override {field}")
        return p

    command("corrupt", "write noisy copies of a directory of images").add_argument("input_dir")
    command("train", "train a denoiser; writes checkpoint + history")
    p_denoise = command("denoise", "denoise one image with a checkpoint")
    p_denoise.add_argument("image")
    p_denoise.add_argument("--truth", default=None, help="clean reference for PSNR reporting")
    command("eval", "PSNR-vs-sigma table for bilateral / init / trained")
    command("inspect", "report learned parameters and diagnostics")

    return parser


def run(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    cfg = build_config(args.config, {field: getattr(args, field) for field in READS[args.command]})
    for field in REQUIRES[args.command]:
        if not getattr(cfg, field):
            raise CliUsageError(f"--{field} is required for {args.command}")
    if args.command == "corrupt":
        return cmd_corrupt(cfg, args.input_dir, args.config)
    if args.command == "train":
        return cmd_train(cfg, args.config)
    if args.command == "denoise":
        return cmd_denoise(cfg, args.image, args.truth, args.config)
    if args.command == "eval":
        return cmd_eval(cfg, args.config)
    return cmd_inspect(cfg, args.config)  # argparse admits no other command


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
