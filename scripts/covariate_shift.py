#!/usr/bin/env python3
"""Covariate-shift experiment: train at one noise level, test across many.

Trains the denoiser on synthetic images contaminated at --sigma_train, then
reports mean test PSNR at each sigma in --sigmas for two pipelines: the
untrained initialization (calibrated CG scalars) and the trained network.
With a mismatched test sigma the trained model degrades gracefully
(PSNR falls monotonically in sigma).

Example:
    python3 scripts/covariate_shift.py --epochs 5 --sigma_train 10
"""
import argparse

from graphdenoise import (
    PipelineConfig,
    add_awgn,
    calibrated_initial,
    evaluate_psnr,
    partition,
    synthesize_image,
    train_loop,
)


def make_pairs(image_seeds, size, patch_side, sigma, noise_seed_base):
    pairs = []
    for i, s in enumerate(image_seeds):
        img = synthesize_image(size, size, seed=s)
        noisy = add_awgn(img, sigma, seed=noise_seed_base + i)
        pairs.extend(zip(partition(noisy, patch_side).patches, partition(img, patch_side).patches))
    return pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigma_train", type=float, default=10.0)
    parser.add_argument("--sigmas", default="10,15,20,25,30")
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--train_count", type=int, default=10)
    parser.add_argument("--test_count", type=int, default=10)
    parser.add_argument("--train_size", type=int, default=64)
    parser.add_argument("--patch_side", type=int, default=64)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    sigmas = tuple(float(s) for s in args.sigmas.split(","))
    hyper = PipelineConfig()
    train_pairs = make_pairs(
        range(600, 600 + args.train_count), args.train_size, args.patch_side,
        args.sigma_train, 650,
    )
    print(f"training on {len(train_pairs)} patches at sigma={args.sigma_train} ...")
    state, history = train_loop(
        train_pairs, args.patch_side, epochs=args.epochs, batch_size=3,
        seed=args.seed, hyper=hyper,
    )
    for h in history:
        print(f"  epoch {h.epoch:3d}: train loss {h.train_loss:.5f}, val PSNR {h.val_psnr:.3f} dB")

    theta0 = calibrated_initial(hyper, [noisy for noisy, _ in train_pairs[:3]], args.patch_side)

    print(f"{'sigma':>6} {'init_dB':>9} {'trained_dB':>11}")
    for sigma_index, sigma in enumerate(sigmas):
        test_pairs = make_pairs(
            range(700, 700 + args.test_count), args.patch_side, args.patch_side,
            sigma, 7000 + 100 * sigma_index,
        )
        init = evaluate_psnr(theta0, test_pairs, args.patch_side, hyper)
        trained = evaluate_psnr(state.params, test_pairs, args.patch_side, hyper)
        print(f"{sigma:6.1f} {init:9.3f} {trained:11.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
