"""How much does each past gradient count? Weight profiles by gradient age.

A single EMA is a one-knob tradeoff: small decay = sharp recency, large
decay = long memory, never both. The mixture profile keeps the sharp recency
spike of the fast EMA *and* a non-negligible plateau over thousands of old
gradients. Nested EMAs (and their DEMA correction) go the other way: nesting
suppresses the most recent gradients, DEMA buys them back by pushing tail
weights negative.

Run: python demos/weight_profiles.py [--csv-dir DIR]
"""

import argparse
import os

import numpy as np

from emx import dema_weights, ema_weights, mixture_weights, nested_ema_weights
from emx.harness import format_series_csv, write_text

HORIZON = 10_000
AGES = (0, 10, 100, 1000, 6000)

profiles = {
    "fast ema (0.9)": ema_weights(0.9, HORIZON),
    "slow ema (0.9999)": ema_weights(0.9999, HORIZON),
    "mixture (0.9 + 5 x 0.9999)": mixture_weights(0.9, 0.9999, 5.0, HORIZON),
    "nested (0.9 o 0.9)": nested_ema_weights(0.9, 0.9, HORIZON),
    "dema (0.9, window 100)": dema_weights(0.9, 100, HORIZON),
}

header = "gradient age".ljust(30) + "".join(f"{a:>12}" for a in AGES)
print(header)
print("-" * len(header))
for name, weights in profiles.items():
    cells = "".join(f"{weights[a]:>12.3e}" for a in AGES)
    print(name.ljust(30) + cells)

half = int(np.searchsorted(np.cumsum(ema_weights(0.9999, HORIZON)), 0.5))
print(f"\nThe slow EMA needs ~{half} gradients to accumulate half its mass;")
print("the fast EMA gets there in ~6. Only the mixture row is large at BOTH ends.")

parser = argparse.ArgumentParser()
parser.add_argument("--csv-dir", help="also write one age,weight CSV per profile")
args = parser.parse_args()
if args.csv_dir:
    os.makedirs(args.csv_dir, exist_ok=True)
    for name, weights in profiles.items():
        slug = name.split(" (")[0].replace(" ", "_")
        path = os.path.join(args.csv_dir, f"{slug}.csv")
        write_text(path, format_series_csv(enumerate(weights), ("age", "weight")))
        print(f"wrote {path}")
