#!/usr/bin/env python3
"""Export plot-ready tables of the taper functions, their smoothing kernels,
and the periodized weight functions for all three flat-top families."""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ftspectra import (  # noqa: E402
    capital_lambda_batch,
    flat_top_parzen,
    infinitely_differentiable,
    lambda_eval,
    trapezoid,
    weight_function,
)
from ftspectra.core import write_csv  # noqa: E402

SPECS = {"tr": trapezoid(), "pr": flat_top_parzen(),
         "id": infinitely_differentiable()}


def write_table(path, header, columns):
    write_csv(path, [header, *zip(*columns)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="kernel_shapes")
    parser.add_argument("--bandwidth", type=float, default=0.1)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    s = np.linspace(-2.0, 2.0, 801)
    write_table(os.path.join(args.out_dir, "taper.csv"),
                ["s"] + list(SPECS),
                [s] + [lambda_eval(spec, s) for spec in SPECS.values()])

    x = np.linspace(-30.0, 30.0, 1201)
    write_table(os.path.join(args.out_dir, "smoothing_kernel.csv"),
                ["x"] + list(SPECS),
                [x] + [capital_lambda_batch(spec, x) for spec in SPECS.values()])

    w = np.linspace(-np.pi, np.pi, 801)
    write_table(os.path.join(args.out_dir, "weight_function.csv"),
                ["x"] + list(SPECS),
                [w] + [weight_function(spec, args.bandwidth, w)
                       for spec in SPECS.values()])
    print(f"wrote 3 tables to {args.out_dir}/ (bandwidth {args.bandwidth})")


if __name__ == "__main__":
    main()
