"""Render SVG projections of fitted domains to an output directory.

Builds the six model variants from the bundled 20-sample set and writes
one SVG per variant for each variable pair, with the defining samples
overlaid. Ellipsoid projections are exact ellipses; parallelepiped
projections show the exact shadow, the hull of the projected box vertices.
"""

import argparse
import sys
from pathlib import Path

import convexuq as cq
from convexuq import ModelVariant


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "tests" / "data",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("projection_gallery"))
    args = parser.parse_args(argv)

    spec = cq.read_intervals_csv(args.data_dir / "standard_intervals.csv")
    samples = cq.read_samples_csv(args.data_dir / "standard_samples.csv")
    u = cq.regularize(spec, samples).rows
    R = cq.fit_correlation_matrix("scc", None, u)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    n = spec.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = 0
    for variant in ModelVariant:
        model = cq.build_model(variant, spec, R)
        slug = variant.value
        for i, j in pairs:
            svg = cq.render_projection(model, i, j, samples=samples)
            path = args.out_dir / f"{slug}_{spec.names[i]}_{spec.names[j]}.svg"
            path.write_text(svg, encoding="utf-8")
            count += 1
    print(f"wrote {count} SVG files to {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
