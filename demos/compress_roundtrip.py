"""Compress a sequence and check the coder against the theoretical bitrate.

Generates a structured sequence, tunes (k, alpha) with the two-step
selector, runs the range coder at the selected pair, and verifies that
(a) decompression inverts compression exactly and (b) the payload size per
symbol sits on top of the theoretical bitrate of the adaptive model.

Usage: python3 compress_roundtrip.py [T] [seed]
"""

import sys

from fcmtune.codec import compress, decompress
from fcmtune.fcm import HyperParams, generate
from fcmtune.tuner import two_step_select


def main() -> None:
    t = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 11

    source = HyperParams(3, 0.1)
    seq = generate(source, t, seed)
    two = two_step_select(seq)
    params = two.params
    if params.alpha <= 0:
        params = HyperParams(params.k, 0.01)

    container = compress(seq, params)
    back = decompress(container)

    raw_bits = 2 * t  # log2(4) bits per symbol uncoded
    bps = container.payload_bits / t
    theory = two.bitrate.bits_per_symbol
    print(f"source k={source.k} alpha={source.alpha} T={t}")
    print(f"selected k={params.k} alpha={params.alpha:.4f} "
          f"(pami argmax + ML fit, {two.evaluations} bitrate evaluation)")
    print(f"raw            : {raw_bits:>9d} bits  (2.000000 bps)")
    print(f"coded payload  : {container.payload_bits:>9d} bits  ({bps:.6f} bps)")
    print(f"theoretical H_T: {theory * t:>9.0f} bits  ({theory:.6f} bps)")
    print(f"coder overhead : {bps - theory:+.6f} bps")
    print(f"round trip     : {'exact' if back == seq else 'MISMATCH'}")
    if back != seq:
        sys.exit(1)


if __name__ == "__main__":
    main()
